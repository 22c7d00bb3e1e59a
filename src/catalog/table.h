#ifndef DATASPREAD_CATALOG_TABLE_H_
#define DATASPREAD_CATALOG_TABLE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog_codec.h"
#include "catalog/schema.h"
#include "catalog/undo_journal.h"
#include "common/result.h"
#include "index/key_index.h"
#include "index/positional_index.h"
#include "storage/table_storage.h"
#include "types/value.h"

namespace dataspread {

class Table;

/// A change event emitted after every table mutation. The Interface Manager
/// subscribes to these to keep bound sheet regions and maintained DBSQL
/// aggregates in sync (paper §3, "two-way synchronization"). Row-level
/// changes are *deltas*: each names the row it touched by its stable row id
/// and carries what a listener cannot read back afterwards (the deleted
/// tuple, the overwritten value). A listener that needs the rest of an
/// inserted or updated row reads it through `table` during the callback
/// (Table::GetRowById). DESIGN.md §9.
struct TableChange {
  enum class Kind {
    kInsert,   ///< row `rid` inserted at display position `position`
    kDelete,   ///< row `rid` (= `before`) removed from display position
               ///< `position`
    kUpdate,   ///< cell (`rid`, `column`) changed `old_value` -> `new_value`
    kSchema,   ///< columns added/dropped/renamed
    kBulk,     ///< many rows changed at once (storage reorganization)
    kDrop,     ///< the table is being dropped; it is destroyed right after
  };
  explicit TableChange(Kind k, size_t pos = 0, size_t col = 0)
      : kind(k), position(pos), column(col) {}

  Kind kind;
  size_t position = 0;    ///< kInsert / kDelete
  size_t column = 0;      ///< kUpdate (kSchema: the column touched)
  uint64_t rid = 0;       ///< kInsert / kDelete / kUpdate
  Row before;             ///< kDelete: the deleted tuple
  Value old_value;        ///< kUpdate: the prior cell value
  Value new_value;        ///< kUpdate: the stored (coerced) cell value
  const Table* table = nullptr;  ///< the changed table; set by Notify
};

/// A relational table that is *interface-aware*: besides schema + storage it
/// maintains
///   - a display order over rows through a PositionalIndex (the N-th row of
///     the table as presented on a sheet is O(log n) away, and so is the
///     position of a given row),
///   - an optional primary-key hash index (with the order's row locator,
///     the key↔position machinery: DESIGN.md §10),
///   - a monotonically increasing version and change listeners.
///
/// Rows are identified internally by stable row ids; the positional index
/// stores row ids in display order, and an id→slot table absorbs the storage
/// layer's swap-on-delete renumbering.
///
/// On a *durable* pager (PagerConfig{wal_path}) the table also owns two side
/// files inside the pager — `order_file` (display position → row id) and
/// `rid_file` (storage slot → row id) — updated alongside every DML so the
/// page-level WAL makes the display order and id maps exactly as durable as
/// the data, and schema changes append catalog DDL records
/// (storage::WalRecordType::kAddColumn etc.). Scratch tables skip all of it:
/// zero extra writes, unchanged accounting. DESIGN.md §6 "Catalog recovery".
class Table {
 public:
  /// Creates an empty table. `model` selects the physical layout; the paper's
  /// design is StorageModel::kHybrid. `pager` is the paged storage engine the
  /// table's heaps live in (shared across a database's tables so all I/O is
  /// accounted in one pool); null gives the table a private pager shaped by
  /// `pager_config` (buffer-pool cap + spill path).
  static Result<std::unique_ptr<Table>> Create(
      std::string name, Schema schema,
      StorageModel model = StorageModel::kHybrid,
      storage::Pager* pager = nullptr,
      const storage::PagerConfig& pager_config = {});

  /// Rebinds a table to its recovered pager files — the reopen path. WAL
  /// statement brackets make recovery discard any statement torn by a crash
  /// (DESIGN.md §7), so the files sit at a committed boundary and Attach
  /// only validates: the order and rid files must have the same length n,
  /// the storage files must hold exactly n rows, and the order must be a
  /// permutation of the rid file's row ids. It then adopts them and rebuilds
  /// the pk index from data. Any disagreement is corruption: Internal, no
  /// repair.
  static Result<std::unique_ptr<Table>> Attach(const TableDescriptor& desc,
                                               storage::Pager* pager);

  /// This table's durable identity: everything Attach needs. Valid at any
  /// statement boundary; the catalog serializes it into checkpoint
  /// snapshots and DDL records.
  TableDescriptor Describe() const;

  /// Durable tables leave their pager files alive on destruction (the files
  /// are the persistent data); DROP TABLE clears this before destroying so
  /// an explicit drop still deallocates. No-op for scratch tables.
  void set_retain_files(bool retain);

  ~Table();

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return order_.size(); }
  uint64_t version() const { return version_; }
  /// Process-unique identity of this Table object. A table dropped and
  /// recreated under the same name (or reattached on reopen) gets a new
  /// incarnation while its version restarts at 0, so caches key freshness
  /// on (incarnation, version), never on (name, version).
  uint64_t incarnation() const { return incarnation_; }
  TableStorage& storage() { return *storage_; }

  // ---- Ordered (display-position) access ------------------------------------

  /// Whole tuple at display position `pos`.
  Result<Row> GetRowAt(size_t pos) const;
  /// One attribute at display position `pos`.
  Result<Value> GetAt(size_t pos, size_t col) const;
  /// Whole tuple of row id `rid` (as named by a TableChange).
  Result<Row> GetRowById(uint64_t rid) const;
  /// One attribute of row id `rid`.
  Result<Value> GetById(uint64_t rid, size_t col) const;
  /// Row ids at display positions [start, start+count), clipped.
  std::vector<uint64_t> RowIdsAt(size_t start, size_t count) const;
  /// Updates one attribute; enforces column type and PK uniqueness.
  Status UpdateAt(size_t pos, size_t col, Value v);
  /// Inserts a tuple so it displays at `pos` (0..num_rows()).
  Status InsertRowAt(size_t pos, Row row);
  /// Appends a tuple at the end of the display order.
  Status AppendRow(Row row);
  /// Deletes the tuple at display position `pos`.
  Status DeleteRowAt(size_t pos);

  /// The pane read path: tuples at positions [start, start+count) clipped to
  /// the table size. O(log n + count·cols).
  std::vector<Row> GetWindow(size_t start, size_t count) const;

  /// Visits all tuples in display order; `fn` returns false to stop early.
  void Scan(const std::function<bool(size_t pos, const Row&)>& fn) const;

  /// The batch read path under GetWindow: visits tuples at display positions
  /// [start, start+count) (clipped) without materializing a Row per tuple.
  /// Display positions are resolved to storage slots up front and contiguous
  /// slot runs are served through TableStorage::VisitRows — one page-cursor
  /// pass per run instead of a GetRow per tuple — so a freshly loaded table
  /// (display order == storage order) scans at full bulk-path speed. The
  /// visitor's `row` argument is the storage slot, not the display position;
  /// the value pointer is valid only during the call.
  Status VisitWindow(size_t start, size_t count,
                     const TableStorage::RowVisitor& visit) const;

  /// The slot-run structure under VisitWindow, exposed for morsel
  /// partitioning (src/exec/morsel.h): resolves display positions
  /// [start, start+count) (clipped) to storage slots and reports each
  /// maximal run of consecutive slots as `fn(pos, slot, len)` — tuples at
  /// display positions [pos, pos+len) live at storage slots
  /// [slot, slot+len). Runs arrive in display order and tile the window
  /// exactly, so cutting morsels at run boundaries keeps every morsel a
  /// bulk-path sweep.
  void VisitSlotRuns(
      size_t start, size_t count,
      const std::function<void(size_t pos, size_t slot, size_t len)>& fn)
      const;

  // ---- Primary key ----------------------------------------------------------

  /// Display position of the row whose PK equals `key`, if the table has a PK.
  /// O(log n): a PK probe, then the order index's row locator
  /// (PositionalIndex::PositionOf).
  Result<size_t> FindByKey(const Value& key) const;

  /// Whole tuple with PK equal to `key`; O(1) expected (hash index).
  Result<Row> GetRowByKey(const Value& key) const;

  /// Updates one attribute of the row with PK `key` without resolving its
  /// display position — the key↔tuple half of the paper's key↔location
  /// mapping. Emits a rid-addressed kUpdate change (the position is not
  /// computed).
  Status UpdateByKey(const Value& key, size_t col, Value v);

  /// Sizes the row maps and the PK index for `rows` rows, so a bulk load
  /// of that many rows never rehashes (import paths call it up front).
  void ReserveRows(size_t rows);

  // ---- Schema changes (the paper's "as efficient as tuple updates") ---------

  Status AddColumn(ColumnDef def, const Value& default_value);
  Status DropColumn(std::string_view column_name);
  Status RenameColumn(std::string_view from, std::string_view to);

  /// Merges a hybrid table's attribute groups back into one row-major group
  /// (HybridStore::Reorganize) and logs the rebinding as a kReorganize DDL
  /// record, so the new group→file structure survives a reopen. Durable
  /// hybrid tables must reorganize through here, not the storage directly
  /// — a bare HybridStore::Reorganize() would leave the logged catalog
  /// pointing at dropped files. No-op for other models.
  Status Reorganize();

  // ---- Transaction undo (src/db/database.cc, DESIGN.md §7) ------------------

  /// Installs (or clears, with nullptr) a transaction undo journal: while
  /// one is installed, every successful DML mutator appends its before-image
  /// entry. The Database layer installs the owning session's journal when a
  /// transaction acquires this table's write latch and clears it again when
  /// the transaction ends.
  void set_undo_journal(UndoJournal* journal) { undo_ = journal; }

  /// The transaction context that owns this table's write latch (0 = none).
  /// While set, every DML helper's statement bracket joins that context —
  /// regardless of calling thread — so a transaction's table mutations and
  /// their rollback compensations all ride the transaction's WAL bracket.
  /// Set/cleared by the Database layer together with the undo journal.
  void set_write_txn(storage::TxnId txn) { write_txn_ = txn; }
  storage::TxnId write_txn() const { return write_txn_; }

  /// Reverses an insert recorded as (pos, rid): deletes the row and hands
  /// the row id back (`next_rid_` steps straight down — every later insert
  /// has already been undone). Capture is suspended inside.
  Status UndoInsertRow(size_t pos, uint64_t rid);
  /// Reverses a delete: re-inserts `row` at `pos` under its original `rid`.
  Status UndoDeleteRow(size_t pos, Row row, uint64_t rid);
  /// Reverses a cell update on row `rid` (rid-addressed so UpdateByKey is
  /// undoable without recovering a display position).
  Status UndoUpdateCell(uint64_t rid, size_t col, Value old_value);

  // ---- Change notification ---------------------------------------------------

  using Listener = std::function<void(const Table&, const TableChange&)>;
  /// Registers a listener; returns a token for RemoveListener.
  int AddListener(Listener listener);
  void RemoveListener(int token);
  /// Announces a kDrop change: the catalog calls it just before it destroys
  /// the table, so listeners can let go of it.
  void NotifyDropped();

 private:
  Table(std::string name, Schema schema, std::unique_ptr<TableStorage> storage);

  Status ValidateRow(const Row& row) const;
  Result<Value> CoerceForColumn(Value v, size_t col) const;
  /// InsertRowAt with the row id chosen by the caller — the undo-delete
  /// path re-inserts under the original rid; the public path passes
  /// `next_rid_`.
  Status InsertRowAtWithRid(size_t pos, Row row, uint64_t rid);
  size_t SlotOf(uint64_t rid) const { return rid_to_slot_[rid]; }
  /// Row id of the row whose PK equals `key` (the table has a PK): a hash
  /// probe, each hash match confirmed by reading the key from storage.
  std::optional<uint64_t> RidOfKey(const Value& key) const;
  void Notify(TableChange change);
  /// Journals (under a transaction) and announces a cell update of row
  /// `rid`: the undo entry and the kUpdate delta share the before-image.
  void NotifyUpdate(uint64_t rid, size_t col, Value before, Value after);
  /// Rebuilds pk index; used after schema changes that affect the PK column.
  void RebuildPkIndex();

  /// True when this table persists its catalog state (durable pager).
  bool durable() const { return order_file_ != 0; }
  /// Rewrites order-file slots [from, order_.size()) from the in-memory
  /// order — the shifted tail after a positional insert/delete. O(1) for
  /// appends, O(n - from) for middle edits.
  void PersistOrderTail(size_t from);
  /// Appends a catalog DDL record carrying this table's full descriptor.
  void LogDdl(storage::WalRecordType type);
  /// Installs recovered order/rid maps of equal length (Attach's last
  /// step); fails with Internal unless `slot_rids` are unique and
  /// `order_rids` is a permutation of them.
  Status AdoptRowMaps(const std::vector<uint64_t>& order_rids,
                      const std::vector<uint64_t>& slot_rids,
                      uint64_t next_rid_floor);

  std::string name_;
  Schema schema_;
  std::unique_ptr<TableStorage> storage_;
  // display position -> row id, and row id -> position (row locator)
  PositionalIndex order_{PositionalIndex::kLocatePayloads};
  std::vector<size_t> rid_to_slot_;       // row id -> storage slot
  std::vector<uint64_t> slot_to_rid_;     // storage slot -> row id
  KeyIndex pk_index_;                     // PK hash -> row id
  uint64_t next_rid_ = 0;
  uint64_t version_ = 0;
  uint64_t incarnation_;
  int next_listener_token_ = 1;
  std::vector<std::pair<int, Listener>> listeners_;
  // Durable catalog state (0 = scratch table): see the class comment.
  storage::FileId order_file_ = 0;
  storage::FileId rid_file_ = 0;
  bool retain_files_ = false;
  UndoJournal* undo_ = nullptr;  // non-null while a txn holds the write latch
  storage::TxnId write_txn_ = 0;  // owning txn context (see set_write_txn)

};

}  // namespace dataspread

#endif  // DATASPREAD_CATALOG_TABLE_H_

#include "catalog/table.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/str_util.h"
#include "storage/hybrid_store.h"

namespace dataspread {

namespace {
std::atomic<uint64_t> next_incarnation{1};
}  // namespace

Result<std::unique_ptr<Table>> Table::Create(
    std::string name, Schema schema, StorageModel model, storage::Pager* pager,
    const storage::PagerConfig& pager_config) {
  DS_RETURN_IF_ERROR(schema.Validate());
  if (name.empty()) {
    return Status::InvalidArgument("table name may not be empty");
  }
  auto storage = CreateStorage(model, schema.num_columns(), pager,
                               pager_config);
  auto table = std::unique_ptr<Table>(
      new Table(std::move(name), std::move(schema), std::move(storage)));
  if (table->storage_->pager().durable()) {
    // The catalog side files: display order and slot→rid, persisted through
    // the same pager (and therefore the same WAL) as the data.
    table->order_file_ = table->storage_->pager().CreateFile();
    table->rid_file_ = table->storage_->pager().CreateFile();
    table->set_retain_files(true);
  }
  return table;
}

Table::Table(std::string name, Schema schema,
             std::unique_ptr<TableStorage> storage)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      storage_(std::move(storage)),
      incarnation_(next_incarnation.fetch_add(1, std::memory_order_relaxed)) {}

Table::~Table() {
  if (durable() && !retain_files_) {
    storage_->pager().DropFile(order_file_);
    storage_->pager().DropFile(rid_file_);
  }
}

void Table::set_retain_files(bool retain) {
  retain_files_ = retain;
  storage_->set_retain_files(retain);
}

TableDescriptor Table::Describe() const {
  TableDescriptor desc;
  desc.name = name_;
  desc.schema = schema_;
  desc.manifest = storage_->Manifest();
  desc.order_file = order_file_;
  desc.rid_file = rid_file_;
  desc.next_rid = next_rid_;
  return desc;
}

void Table::LogDdl(storage::WalRecordType type) {
  storage::Pager& pager = storage_->pager();
  if (!pager.durable()) return;
  std::string payload;
  EncodeTableDescriptor(Describe(), &payload);
  pager.LogCatalogRecord(type, payload);
  // The record is durable (LogCatalogRecord syncs): the files the DDL
  // replaced can go. Dropping them earlier would let a crash-reopen of the
  // pre-record state bind files that no longer exist; dropping them later
  // costs nothing (kDropFile replays idempotently, orphans are swept).
  for (storage::FileId f : storage_->TakeRetiredFiles()) {
    pager.DropFile(f);
  }
}

namespace {

/// Writes `rids` as INT values into file slots [start, start+count) — the
/// one encoding of the order/rid side files, which Attach reads back.
void WriteRidSpan(storage::Pager& pager, storage::FileId file, uint64_t start,
                  const uint64_t* rids, size_t count) {
  if (count == 0) return;
  Row values;
  values.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    values.push_back(Value::Int(static_cast<int64_t>(rids[i])));
  }
  pager.WriteRange(file, start, values.data(), values.size());
}

}  // namespace

void Table::PersistOrderTail(size_t from) {
  size_t n = order_.size();
  if (from >= n) return;
  std::vector<uint64_t> rids = order_.GetRange(from, n - from);
  WriteRidSpan(storage_->pager(), order_file_, from, rids.data(),
               rids.size());
}

Status Table::AdoptRowMaps(const std::vector<uint64_t>& order_rids,
                           const std::vector<uint64_t>& slot_rids,
                           uint64_t next_rid_floor) {
  // The dense rid→slot map doubles as the validator: a slot rid seen twice,
  // or an order rid no slot holds (or placed twice), is corruption.
  constexpr size_t kNoSlot = ~size_t{0};
  uint64_t max_rid = 0;
  for (uint64_t rid : slot_rids) max_rid = std::max(max_rid, rid + 1);
  rid_to_slot_.assign(max_rid, kNoSlot);
  for (size_t slot = 0; slot < slot_rids.size(); ++slot) {
    size_t& mapped = rid_to_slot_[slot_rids[slot]];
    if (mapped != kNoSlot) {
      return Status::Internal("rid file names a row id twice");
    }
    mapped = slot;
  }
  std::vector<bool> placed(slot_rids.size(), false);
  for (uint64_t rid : order_rids) {
    if (rid >= max_rid || rid_to_slot_[rid] == kNoSlot ||
        placed[rid_to_slot_[rid]]) {
      return Status::Internal(
          "order file is not a permutation of the rid file");
    }
    placed[rid_to_slot_[rid]] = true;
  }
  order_.Build(order_rids);
  slot_to_rid_ = slot_rids;
  next_rid_ = std::max(next_rid_floor, max_rid);
  RebuildPkIndex();
  return Status::OK();
}

namespace {

/// Reads file slots [0, count) as row ids; fails on any non-INT slot.
Result<std::vector<uint64_t>> ReadRidFile(storage::Pager& pager,
                                          storage::FileId file,
                                          uint64_t count) {
  std::vector<uint64_t> rids;
  rids.reserve(static_cast<size_t>(count));
  Row values;
  pager.ReadRange(file, 0, count, &values);
  for (const Value& v : values) {
    if (v.type() != DataType::kInt || v.int_value() < 0) {
      return Status::Internal("catalog side file holds a non-INT row id");
    }
    rids.push_back(static_cast<uint64_t>(v.int_value()));
  }
  return rids;
}

}  // namespace

Result<std::unique_ptr<Table>> Table::Attach(const TableDescriptor& desc,
                                             storage::Pager* pager) {
  DS_RETURN_IF_ERROR(desc.schema.Validate());
  if (!pager->durable() || !pager->HasFile(desc.order_file) ||
      !pager->HasFile(desc.rid_file)) {
    return Status::Internal("table descriptor names dead catalog side files");
  }
  if (desc.manifest.num_columns != desc.schema.num_columns()) {
    return Status::Internal("catalog schema/manifest arity mismatch");
  }
  // Recovery replays only closed statement brackets and snapshots never
  // split one (DESIGN.md §7), so the files sit at a committed boundary: the
  // order file's length is the row count, and every other file must agree.
  uint64_t n = pager->FileSize(desc.order_file);
  if (pager->FileSize(desc.rid_file) != n) {
    return Status::Internal("order and rid files disagree on the row count");
  }
  DS_ASSIGN_OR_RETURN(std::vector<uint64_t> order_rids,
                      ReadRidFile(*pager, desc.order_file, n));
  DS_ASSIGN_OR_RETURN(std::vector<uint64_t> slot_rids,
                      ReadRidFile(*pager, desc.rid_file, n));
  DS_ASSIGN_OR_RETURN(std::unique_ptr<TableStorage> storage,
                      AttachStorage(desc.manifest, n, pager));
  auto table = std::unique_ptr<Table>(
      new Table(desc.name, desc.schema, std::move(storage)));
  table->order_file_ = desc.order_file;
  table->rid_file_ = desc.rid_file;
  table->set_retain_files(true);
  DS_RETURN_IF_ERROR(
      table->AdoptRowMaps(order_rids, slot_rids, desc.next_rid));
  return table;
}

Result<Row> Table::GetRowAt(size_t pos) const {
  DS_ASSIGN_OR_RETURN(uint64_t rid, order_.Get(pos));
  return storage_->GetRow(SlotOf(rid));
}

Result<Value> Table::GetAt(size_t pos, size_t col) const {
  DS_ASSIGN_OR_RETURN(uint64_t rid, order_.Get(pos));
  return storage_->Get(SlotOf(rid), col);
}

Result<Row> Table::GetRowById(uint64_t rid) const {
  if (rid >= rid_to_slot_.size()) {
    return Status::OutOfRange("row id " + std::to_string(rid));
  }
  return storage_->GetRow(SlotOf(rid));
}

Result<Value> Table::GetById(uint64_t rid, size_t col) const {
  if (rid >= rid_to_slot_.size()) {
    return Status::OutOfRange("row id " + std::to_string(rid));
  }
  return storage_->Get(SlotOf(rid), col);
}

std::vector<uint64_t> Table::RowIdsAt(size_t start, size_t count) const {
  start = std::min(start, order_.size());
  return order_.GetRange(start, std::min(count, order_.size() - start));
}

Result<Value> Table::CoerceForColumn(Value v, size_t col) const {
  if (v.is_error()) {
    return Status::TypeError("error value " + v.error_code() +
                             " cannot be stored in table " + name_);
  }
  return v.CastTo(schema_.column(col).type);
}

Status Table::ValidateRow(const Row& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(row.size()) + " does not match " +
        name_ + "(" + std::to_string(schema_.num_columns()) + " columns)");
  }
  return Status::OK();
}

Status Table::UpdateAt(size_t pos, size_t col, Value v) {
  if (col >= schema_.num_columns()) {
    return Status::OutOfRange("column " + std::to_string(col));
  }
  DS_ASSIGN_OR_RETURN(uint64_t rid, order_.Get(pos));
  DS_ASSIGN_OR_RETURN(Value coerced, CoerceForColumn(std::move(v), col));
  DS_ASSIGN_OR_RETURN(Value before, storage_->Get(SlotOf(rid), col));
  // Statement bracket: everything this update logs is all-or-nothing across
  // crashes (DESIGN.md §7). Nested inside a Database-level statement it
  // rides the outer bracket.
  storage::StatementScope txn(storage_->pager(), write_txn_);
  auto pk = schema_.primary_key_index();
  if (pk && *pk == col) {
    if (coerced.is_null()) {
      return Status::ConstraintViolation("PRIMARY KEY of " + name_ +
                                         " may not be NULL");
    }
    std::optional<uint64_t> clash = RidOfKey(coerced);
    if (clash.has_value() && *clash != rid) {
      return Status::ConstraintViolation("duplicate PRIMARY KEY " +
                                         coerced.ToSqlLiteral() + " in " + name_);
    }
    pk_index_.Erase(KeyIndex::HashOf(before), rid);
    pk_index_.Insert(KeyIndex::HashOf(coerced), rid);
  }
  DS_RETURN_IF_ERROR(storage_->Set(SlotOf(rid), col, coerced));
  txn.Commit();
  NotifyUpdate(rid, col, std::move(before), std::move(coerced));
  return Status::OK();
}

void Table::NotifyUpdate(uint64_t rid, size_t col, Value before,
                         Value after) {
  if (undo_ != nullptr) {
    undo_->entries.push_back(
        {UndoJournal::Entry::Kind::kUpdate, this, 0, col, rid, {}, before});
  }
  TableChange change(TableChange::Kind::kUpdate, 0, col);
  change.rid = rid;
  change.old_value = std::move(before);
  change.new_value = std::move(after);
  Notify(std::move(change));
}

Status Table::InsertRowAt(size_t pos, Row row) {
  return InsertRowAtWithRid(pos, std::move(row), next_rid_);
}

Status Table::InsertRowAtWithRid(size_t pos, Row row, uint64_t rid) {
  DS_RETURN_IF_ERROR(ValidateRow(row));
  for (size_t c = 0; c < row.size(); ++c) {
    DS_ASSIGN_OR_RETURN(row[c], CoerceForColumn(std::move(row[c]), c));
  }
  auto pk = schema_.primary_key_index();
  if (pk) {
    if (row[*pk].is_null()) {
      return Status::ConstraintViolation("PRIMARY KEY of " + name_ +
                                         " may not be NULL");
    }
    if (RidOfKey(row[*pk]).has_value()) {
      return Status::ConstraintViolation("duplicate PRIMARY KEY " +
                                         row[*pk].ToSqlLiteral() + " in " + name_);
    }
  }
  // Statement bracket: recovery applies the records below only if the
  // closing kTxnCommit survived, so a crash mid-insert rolls the whole row
  // away and the write order within the statement is free (DESIGN.md §7).
  storage::StatementScope txn(storage_->pager(), write_txn_);
  if (durable()) {
    // The order file gets the shifted tail [pos, n]: one slot for an
    // append, O(n − pos) for a middle insert; the rid file one slot.
    storage::Pager& pager = storage_->pager();
    size_t n = order_.size();
    std::vector<uint64_t> tail;
    tail.reserve(n - pos + 1);
    tail.push_back(rid);
    std::vector<uint64_t> shifted = order_.GetRange(pos, n - pos);
    tail.insert(tail.end(), shifted.begin(), shifted.end());
    WriteRidSpan(pager, order_file_, pos, tail.data(), tail.size());
    pager.Write(rid_file_, n, Value::Int(static_cast<int64_t>(rid)));
  }
  auto slot_or = storage_->AppendRow(row);
  if (!slot_or.ok()) {
    if (durable()) {
      // Roll the side files back so they never acknowledge a row the
      // storage refused (cannot fail after the validation above, but the
      // files must not drift if it ever does).
      size_t n = order_.size();
      PersistOrderTail(pos);
      storage_->pager().Truncate(order_file_, n);
      storage_->pager().Truncate(rid_file_, n);
    }
    return slot_or.status();
  }
  size_t slot = slot_or.ValueOrDie();
  if (rid >= next_rid_) next_rid_ = rid + 1;
  if (rid_to_slot_.size() <= rid) rid_to_slot_.resize(rid + 1);
  rid_to_slot_[rid] = slot;
  if (slot_to_rid_.size() <= slot) slot_to_rid_.resize(slot + 1);
  slot_to_rid_[slot] = rid;
  DS_RETURN_IF_ERROR(order_.InsertAt(pos, rid));
  if (pk) pk_index_.Insert(KeyIndex::HashOf(row[*pk]), rid);
  txn.Commit();
  if (undo_ != nullptr) {
    undo_->entries.push_back(
        {UndoJournal::Entry::Kind::kInsert, this, pos, 0, rid, {}, {}});
  }
  TableChange change(TableChange::Kind::kInsert, pos);
  change.rid = rid;
  Notify(std::move(change));
  return Status::OK();
}

Status Table::AppendRow(Row row) {
  return InsertRowAt(order_.size(), std::move(row));
}

Status Table::DeleteRowAt(size_t pos) {
  DS_ASSIGN_OR_RETURN(uint64_t rid, order_.Get(pos));
  size_t slot = SlotOf(rid);
  Row before;
  if (undo_ != nullptr || !listeners_.empty()) {
    // Capture the full tuple before the storage swap overwrites it. The
    // undo journal and the kDelete delta both carry it.
    DS_ASSIGN_OR_RETURN(before, storage_->GetRow(slot));
  }
  // Statement bracket: the rid move, order rewrite, data swap, and
  // truncations below commit or vanish together (DESIGN.md §7).
  storage::StatementScope txn(storage_->pager(), write_txn_);
  auto pk = schema_.primary_key_index();
  if (pk) {
    DS_ASSIGN_OR_RETURN(Value key, storage_->Get(slot, *pk));
    pk_index_.Erase(KeyIndex::HashOf(key), rid);
  }
  size_t n = order_.size();
  if (durable()) {
    // Storage deletion is deterministic swap-with-last, so the rid file
    // takes the moved row's id at `slot` and loses its last slot; the order
    // file loses position `pos` (the shifted tail is rewritten).
    storage::Pager& pager = storage_->pager();
    if (slot != n - 1) {
      uint64_t moved = slot_to_rid_[n - 1];
      pager.Write(rid_file_, slot, Value::Int(static_cast<int64_t>(moved)));
    }
    std::vector<uint64_t> tail = order_.GetRange(pos + 1, n - pos - 1);
    WriteRidSpan(pager, order_file_, pos, tail.data(), tail.size());
    pager.Truncate(order_file_, n - 1);
  }
  DS_ASSIGN_OR_RETURN(size_t moved_slot, storage_->DeleteRow(slot));
  // The storage layer moved the tuple from `moved_slot` into `slot`; repoint
  // its row id.
  if (moved_slot != slot) {
    uint64_t moved_rid = slot_to_rid_[moved_slot];
    rid_to_slot_[moved_rid] = slot;
    slot_to_rid_[slot] = moved_rid;
  }
  slot_to_rid_.pop_back();
  if (durable()) storage_->pager().Truncate(rid_file_, n - 1);
  (void)order_.EraseAt(pos);
  txn.Commit();
  if (undo_ != nullptr) {
    undo_->entries.push_back(
        {UndoJournal::Entry::Kind::kDelete, this, pos, 0, rid, before, {}});
  }
  TableChange change(TableChange::Kind::kDelete, pos);
  change.rid = rid;
  change.before = std::move(before);
  Notify(std::move(change));
  return Status::OK();
}

std::vector<Row> Table::GetWindow(size_t start, size_t count) const {
  std::vector<Row> out;
  order_.Visit(start, count, [&](size_t, uint64_t rid) {
    auto row = storage_->GetRow(SlotOf(rid));
    if (row.ok()) out.push_back(std::move(row).value());
  });
  return out;
}

Status Table::VisitWindow(size_t start, size_t count,
                          const TableStorage::RowVisitor& visit) const {
  Status status = Status::OK();
  VisitSlotRuns(start, count, [&](size_t, size_t slot, size_t len) {
    if (!status.ok()) return;
    status = storage_->VisitRows(slot, len, visit);
  });
  return status;
}

void Table::VisitSlotRuns(
    size_t start, size_t count,
    const std::function<void(size_t pos, size_t slot, size_t len)>& fn) const {
  std::vector<size_t> slots;
  slots.reserve(std::min(count, order_.size() - std::min(start, order_.size())));
  size_t first_pos = 0;
  order_.Visit(start, count, [&](size_t pos, uint64_t rid) {
    if (slots.empty()) first_pos = pos;
    slots.push_back(SlotOf(rid));
  });
  size_t i = 0;
  while (i < slots.size()) {
    size_t j = i + 1;
    while (j < slots.size() && slots[j] == slots[j - 1] + 1) ++j;
    fn(first_pos + i, slots[i], j - i);
    i = j;
  }
}

void Table::Scan(const std::function<bool(size_t, const Row&)>& fn) const {
  bool stopped = false;
  order_.Visit(0, order_.size(), [&](size_t pos, uint64_t rid) {
    if (stopped) return;
    auto row = storage_->GetRow(SlotOf(rid));
    if (row.ok() && !fn(pos, row.value())) stopped = true;
  });
}

Result<size_t> Table::FindByKey(const Value& key) const {
  auto pk = schema_.primary_key_index();
  if (!pk) {
    return Status::InvalidArgument("table " + name_ + " has no PRIMARY KEY");
  }
  std::optional<uint64_t> rid = RidOfKey(key);
  if (!rid.has_value()) {
    return Status::NotFound("no row with key " + key.ToSqlLiteral() + " in " +
                            name_);
  }
  auto pos = order_.PositionOf(*rid);
  if (!pos.ok()) {
    return Status::Internal("pk index points at a row missing from the order");
  }
  return pos;
}

std::optional<uint64_t> Table::RidOfKey(const Value& key) const {
  size_t pk = *schema_.primary_key_index();
  return pk_index_.Find(KeyIndex::HashOf(key), [&](uint64_t rid) {
    auto stored = storage_->Get(SlotOf(rid), pk);
    return stored.ok() && stored.value() == key;
  });
}

void Table::ReserveRows(size_t rows) {
  rid_to_slot_.reserve(rows);
  slot_to_rid_.reserve(rows);
  if (schema_.primary_key_index()) pk_index_.Reserve(rows);
}

Result<Row> Table::GetRowByKey(const Value& key) const {
  auto pk = schema_.primary_key_index();
  if (!pk) {
    return Status::InvalidArgument("table " + name_ + " has no PRIMARY KEY");
  }
  std::optional<uint64_t> rid = RidOfKey(key);
  if (!rid.has_value()) {
    return Status::NotFound("no row with key " + key.ToSqlLiteral() + " in " +
                            name_);
  }
  return storage_->GetRow(SlotOf(*rid));
}

Status Table::UpdateByKey(const Value& key, size_t col, Value v) {
  auto pk = schema_.primary_key_index();
  if (!pk) {
    return Status::InvalidArgument("table " + name_ + " has no PRIMARY KEY");
  }
  if (col >= schema_.num_columns()) {
    return Status::OutOfRange("column " + std::to_string(col));
  }
  std::optional<uint64_t> found = RidOfKey(key);
  if (!found.has_value()) {
    return Status::NotFound("no row with key " + key.ToSqlLiteral() + " in " +
                            name_);
  }
  uint64_t rid = *found;
  DS_ASSIGN_OR_RETURN(Value coerced, CoerceForColumn(std::move(v), col));
  DS_ASSIGN_OR_RETURN(Value before, storage_->Get(SlotOf(rid), col));
  storage::StatementScope txn(storage_->pager(), write_txn_);
  if (col == *pk) {
    if (coerced.is_null()) {
      return Status::ConstraintViolation("PRIMARY KEY of " + name_ +
                                         " may not be NULL");
    }
    std::optional<uint64_t> clash = RidOfKey(coerced);
    if (clash.has_value() && *clash != rid) {
      return Status::ConstraintViolation("duplicate PRIMARY KEY " +
                                         coerced.ToSqlLiteral() + " in " + name_);
    }
    pk_index_.Erase(KeyIndex::HashOf(before), rid);
    pk_index_.Insert(KeyIndex::HashOf(coerced), rid);
  }
  DS_RETURN_IF_ERROR(storage_->Set(SlotOf(rid), col, coerced));
  txn.Commit();
  NotifyUpdate(rid, col, std::move(before), std::move(coerced));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Transaction undo (DESIGN.md §7): each UndoX reverses one journal entry.
// Undo runs in exact reverse journal order, so the state each entry sees is
// precisely the state its forward op left behind — recorded positions and
// rids are valid again by induction. Capture is suspended (undo_ cleared)
// while an undo executes; the WAL still logs the undo's page mutations as
// compensations inside the open abort bracket.
// ---------------------------------------------------------------------------

Status Table::UndoInsertRow(size_t pos, uint64_t rid) {
  UndoJournal* saved = undo_;
  undo_ = nullptr;
  Status s = DeleteRowAt(pos);
  undo_ = saved;
  DS_RETURN_IF_ERROR(s);
  // Hand the id back: the insert consumed next_rid_, and every later insert
  // has already been undone, so the counter steps straight down.
  if (rid + 1 == next_rid_) next_rid_ = rid;
  return Status::OK();
}

Status Table::UndoDeleteRow(size_t pos, Row row, uint64_t rid) {
  UndoJournal* saved = undo_;
  undo_ = nullptr;
  Status s = InsertRowAtWithRid(pos, std::move(row), rid);
  undo_ = saved;
  return s;
}

Status Table::UndoUpdateCell(uint64_t rid, size_t col, Value old_value) {
  size_t slot = SlotOf(rid);
  DS_ASSIGN_OR_RETURN(Value current, storage_->Get(slot, col));
  storage::StatementScope txn(storage_->pager(), write_txn_);
  auto pk = schema_.primary_key_index();
  if (pk && *pk == col) {
    pk_index_.Erase(KeyIndex::HashOf(current), rid);
    if (!old_value.is_null()) {
      pk_index_.Insert(KeyIndex::HashOf(old_value), rid);
    }
  }
  DS_RETURN_IF_ERROR(storage_->Set(slot, col, old_value));
  txn.Commit();
  // Rollback replays as ordinary deltas (undo capture is off while undoing).
  UndoJournal* saved = undo_;
  undo_ = nullptr;
  NotifyUpdate(rid, col, std::move(current), std::move(old_value));
  undo_ = saved;
  return Status::OK();
}

Status Table::AddColumn(ColumnDef def, const Value& default_value) {
  if (def.primary_key && num_rows() > 0) {
    return Status::InvalidArgument(
        "cannot add a PRIMARY KEY column to non-empty table " + name_);
  }
  DS_RETURN_IF_ERROR(schema_.AddColumn(def));
  Value coerced = default_value;
  if (!default_value.is_null()) {
    auto r = default_value.CastTo(def.type);
    if (!r.ok()) {
      (void)schema_.RemoveColumn(schema_.num_columns() - 1);
      return r.status();
    }
    coerced = std::move(r).value();
  }
  // Hold auto-checkpoints off until the schema edit, the storage rewrite,
  // and the DDL record have all landed: a snapshot between them would
  // capture a half-applied schema change.
  storage::CheckpointDeferral no_checkpoint(storage_->pager());
  Status s = storage_->AddColumn(coerced);
  if (!s.ok()) {
    (void)schema_.RemoveColumn(schema_.num_columns() - 1);
    return s;
  }
  LogDdl(storage::WalRecordType::kAddColumn);
  Notify(TableChange(TableChange::Kind::kSchema, 0, schema_.num_columns() - 1));
  return Status::OK();
}

Status Table::DropColumn(std::string_view column_name) {
  auto idx = schema_.FindColumn(column_name);
  if (!idx) {
    return Status::NotFound("column '" + std::string(column_name) +
                            "' does not exist in " + name_);
  }
  bool was_pk = schema_.column(*idx).primary_key;
  storage::CheckpointDeferral no_checkpoint(storage_->pager());
  DS_RETURN_IF_ERROR(storage_->DropColumn(*idx));
  DS_RETURN_IF_ERROR(schema_.RemoveColumn(*idx));
  if (was_pk) pk_index_.Clear();
  LogDdl(storage::WalRecordType::kDropColumn);
  Notify(TableChange(TableChange::Kind::kSchema, 0, *idx));
  return Status::OK();
}

Status Table::RenameColumn(std::string_view from, std::string_view to) {
  auto idx = schema_.FindColumn(from);
  if (!idx) {
    return Status::NotFound("column '" + std::string(from) +
                            "' does not exist in " + name_);
  }
  DS_RETURN_IF_ERROR(schema_.RenameColumn(*idx, std::string(to)));
  LogDdl(storage::WalRecordType::kRenameColumn);
  Notify(TableChange(TableChange::Kind::kSchema, 0, *idx));
  return Status::OK();
}

Status Table::Reorganize() {
  if (storage_->model() != StorageModel::kHybrid) return Status::OK();
  storage::CheckpointDeferral no_checkpoint(storage_->pager());
  DS_RETURN_IF_ERROR(static_cast<HybridStore*>(storage_.get())->Reorganize());
  LogDdl(storage::WalRecordType::kReorganize);
  Notify(TableChange(TableChange::Kind::kBulk));
  return Status::OK();
}

int Table::AddListener(Listener listener) {
  int token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void Table::RemoveListener(int token) {
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->first == token) {
      listeners_.erase(it);
      return;
    }
  }
}

void Table::Notify(TableChange change) {
  version_ += 1;
  change.table = this;
  for (const auto& [token, fn] : listeners_) {
    (void)token;
    fn(*this, change);
  }
}

void Table::NotifyDropped() { Notify(TableChange(TableChange::Kind::kDrop)); }

void Table::RebuildPkIndex() {
  pk_index_.Clear();
  auto pk = schema_.primary_key_index();
  if (!pk) return;
  pk_index_.Reserve(slot_to_rid_.size());
  for (size_t slot = 0; slot < slot_to_rid_.size(); ++slot) {
    auto v = storage_->Get(slot, *pk);
    if (v.ok()) pk_index_.Insert(KeyIndex::HashOf(v.value()), slot_to_rid_[slot]);
  }
}

}  // namespace dataspread

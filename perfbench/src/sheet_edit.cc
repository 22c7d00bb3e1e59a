// Workload sheet_edit: a durable sheet edited beside reads. The WAL,
// positional writes, two-way sync, DBSQL recompute and transactions do the
// work; scrolls near the edits show whether a write-path change costs reads.
//
// Flush policy: the DataSpread default (DatabaseOptions::sync_on_commit off).
// Every statement and table mutation is WAL-logged; fsync happens only at
// the checkpoint the `save` op takes.
#include <filesystem>
#include <memory>

#include "harness.h"
#include "sql/parser.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 100000;
constexpr size_t kLedgerRows = 10000;
// Set-ups are timed kSetups times: the first half before the run (the last
// of those serves it), the rest after it, so their median samples the host
// over the whole run.
constexpr int kSetups = 12;
// Clean Database::Open cycles timed after the run (a detail line).
constexpr int kReopens = 5;
constexpr int64_t kPaneRows = 50;
constexpr int64_t kAmountCol = 2;
constexpr int64_t kAnchorRow = 0, kAnchorCol = 4;  // E1
// Deck of 100 ops: the kinds below in the given counts, shuffled, then one
// save.
enum Kind { kEdit, kScroll, kRowShift, kCommit, kSave };
const std::vector<int> kDeck = {40, 25, 15, 19};
const char* const kKindName[] = {"edit", "scroll", "row_shift", "commit",
                                 "save"};
constexpr double kDecksPerSecond = 1.1;

std::string TextOf(uint64_t seed, int64_t id) {
  Rng r = Rng::Stream(seed, 0x5E7 + static_cast<uint64_t>(id));
  return Word(r, 8);
}
int64_t AmountOf(uint64_t seed, int64_t id) {
  return static_cast<int64_t>(
      Rng::Stream(seed, 0xD07 + static_cast<uint64_t>(id)).Below(1000));
}
std::string MemoOf(uint64_t seed, int64_t id) {
  Rng r = Rng::Stream(seed, 0x3E30 + static_cast<uint64_t>(id));
  return Word(r, 6);
}

/// The shadow model: display order and values of both tables.
struct Shadow {
  std::vector<int64_t> t_ids;       // display order of t
  std::vector<int64_t> amount;      // t amount by id
  int64_t sum = 0;                  // SUM(amount) over t
  std::vector<int64_t> ledger_ids;  // display order of ledger
  std::vector<int64_t> ledger_amount;  // by id

  Row TRow(uint64_t seed, int64_t id) const {
    return {Value::Int(id), Value::Text(TextOf(seed, id)),
            Value::Int(amount[static_cast<size_t>(id)])};
  }
  Row LedgerRow(uint64_t seed, int64_t id) const {
    return {Value::Int(id), Value::Int(ledger_amount[static_cast<size_t>(id)]),
            Value::Text(MemoOf(seed, id))};
  }
};

/// Compares every row of `table` with the shadow rows `expect(pos)`.
template <typename Expect>
bool SameTable(dataspread::Table* table, size_t n, Expect expect) {
  if (table->num_rows() != n) return false;
  std::vector<Row> rows = table->GetWindow(0, n);
  if (rows.size() != n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (rows[i] != expect(i)) return false;
  }
  return true;
}

}  // namespace

RunResult RunSheetEdit(const Options& opt) {
  namespace fs = std::filesystem;
  RunResult out;
  const uint64_t seed = opt.seed;
  const size_t rows = kRows / static_cast<size_t>(opt.shrink);
  const size_t ledger_rows = kLedgerRows / static_cast<size_t>(opt.shrink);

  // ---- Inputs ----
  const int64_t heap_start = HeapInUseBytes();
  Shadow sh;
  sh.t_ids.resize(rows);
  for (size_t i = 0; i < rows; ++i) sh.t_ids[i] = static_cast<int64_t>(i);
  Rng data_rng = Rng::Stream(seed, 1);
  Shuffle(&sh.t_ids, data_rng);
  sh.amount.resize(rows);
  std::string t_csv = "id,v,amount\n";
  for (int64_t id : sh.t_ids) {
    sh.amount[static_cast<size_t>(id)] = AmountOf(seed, id);
    sh.sum += AmountOf(seed, id);
    t_csv += std::to_string(id) + "," + TextOf(seed, id) + "," +
             std::to_string(AmountOf(seed, id)) + "\n";
  }
  std::string ledger_csv = "id,amount,memo\n";
  for (size_t i = 0; i < ledger_rows; ++i) {
    int64_t id = static_cast<int64_t>(i);
    int64_t amount = AmountOf(seed ^ 0x1ED6E5, id);
    sh.ledger_ids.push_back(id);
    sh.ledger_amount.push_back(amount);
    ledger_csv += std::to_string(id) + "," + std::to_string(amount) + "," +
                  MemoOf(seed, id) + "\n";
  }
  out.input_digest = Fnv(Fnv(kFnvBasis, t_csv), ledger_csv);
  // Kept for the set-ups after the run: 2.4 MB, counted as the benchmark's.
  const int64_t bench_bytes = HeapInUseBytes() - heap_start;

  // ---- Setup ----
  std::vector<double> setup_s, import_s;
  std::unique_ptr<DataSpread> holder;
  dataspread::Sheet* sheet = nullptr;
  dataspread::Table* t = nullptr;
  std::string base;
  auto set_up = [&](int k) {
    holder.reset();
    if (!base.empty()) fs::remove_all(fs::path(base).parent_path());
    fs::create_directories(opt.scratch + "/edit-" + std::to_string(k));
    base = opt.scratch + "/edit-" + std::to_string(k) + "/sheet";
    dataspread::DataSpreadOptions o;
    o.auto_pump = false;
    o.database_path = base;
    holder = std::make_unique<DataSpread>(o);
    sheet = holder->AddSheet("S").ValueOrDie();
    int64_t t0 = NowNs();
    auto table = holder->ImportCsvAsTable(t_csv, "t", "id");
    auto ledger = holder->ImportCsvAsTable(ledger_csv, "ledger", "id");
    int64_t t1 = NowNs();
    auto bound = holder->ImportTable("S", "A1", "t");
    dataspread::Status anchor = holder->SetCellAt(
        sheet, kAnchorRow, kAnchorCol, "=DBSQL(\"SELECT SUM(amount) FROM t\")");
    holder->Pump();
    holder->db().Checkpoint();
    int64_t t2 = NowNs();
    if (!table.ok() || !ledger.ok() || !bound.ok() || !anchor.ok()) {
      out.correct = false;
      out.Note("setup failed");
      return false;
    }
    t = table.value();
    setup_s.push_back((t2 - t0) / 1e9);
    import_s.push_back((t1 - t0) / 1e9);
    return true;
  };
  for (int k = 0; k < kSetups / 2; ++k) {
    if (!set_up(k)) return out;
  }
  if (!ResetPeakRss()) out.Note("could not reset the peak RSS after set-up");
  DataSpread& ds = *holder;
  if (ds.GetValueAt(sheet, kAnchorRow, kAnchorCol) != Value::Int(sh.sum)) {
    out.correct = false;
    out.Note("initial DBSQL sum differs");
  }

  // ---- Ops ----
  Rng op_rng = Rng::Stream(seed, 2);
  // Row shifts cost more the nearer the top they land; spreading their
  // positions evenly keeps the run's mix the same for every seed.
  EvenSpread shift_pos(op_rng);
  Tracer tracer(opt.trace), off(false);
  const size_t decks = DeckCount(opt, kDecksPerSecond);
  tracer.Reserve(decks * 100 * 8);
  OpSamples samples;
  CounterBook book;
  std::map<std::string, std::vector<double>> ms_of;
  std::map<std::string, uint64_t> traced_seq;
  uint64_t shifts = 0;
  int64_t top = 1;
  int64_t next_id = static_cast<int64_t>(rows);
  int64_t next_ledger_id = static_cast<int64_t>(ledger_rows);
  const auto wal_before = ds.db().pager().stats().wal_bytes;
  int op_id = 0;
  for (size_t d = 0; d < decks; ++d) {
    std::vector<int> deck = Deck(kDeck, op_rng);
    deck.push_back(kSave);
    for (int kind : deck) {
      const std::string name = kKindName[kind];
      const int64_t n = static_cast<int64_t>(sh.t_ids.size());
      // Arguments, drawn before the clock starts.
      int64_t row = 0, amount = 0, pos = 0, key = 0, new_id = 0;
      bool insert = false;
      uint64_t user_bytes = 0;  // bytes of user input the op carries
      std::string input;
      std::vector<std::pair<std::string, std::string>> stmts;
      Row new_row;
      switch (kind) {
        case kEdit: {
          row = top + static_cast<int64_t>(op_rng.Below(kPaneRows));
          int64_t id = sh.t_ids[static_cast<size_t>(row - 1)];
          amount = (sh.amount[static_cast<size_t>(id)] + 1 +
                    static_cast<int64_t>(op_rng.Below(999))) % 1000;
          input = std::to_string(amount);
          user_bytes += input.size();
          break;
        }
        case kScroll: {
          int64_t step = 1 + static_cast<int64_t>(op_rng.Below(kPaneRows));
          if (op_rng.Below(2) == 0) step = -step;
          top = std::clamp<int64_t>(top + step, 1, n - kPaneRows + 1);
          break;
        }
        case kRowShift: {
          insert = shifts++ % 2 == 0;
          pos = static_cast<int64_t>(
              shift_pos.Below(static_cast<uint64_t>(n + (insert ? 1 : 0))));
          if (insert) {
            new_id = next_id++;
            sh.amount.push_back(AmountOf(seed, new_id));
            new_row = sh.TRow(seed, new_id);
            for (const Value& v : new_row) user_bytes += v.ToDisplayString().size();
          }
          break;
        }
        case kCommit: {
          key = sh.ledger_ids[op_rng.Below(sh.ledger_ids.size())];
          amount = static_cast<int64_t>(op_rng.Below(1000));
          new_id = next_ledger_id++;
          sh.ledger_amount.push_back(static_cast<int64_t>(op_rng.Below(1000)));
          stmts = {{"begin", "BEGIN"},
                   {"update", "UPDATE ledger SET amount = " +
                                  std::to_string(amount) +
                                  " WHERE id = " + std::to_string(key)},
                   {"insert", "INSERT INTO ledger VALUES (" +
                                  std::to_string(new_id) + ", " +
                                  std::to_string(sh.ledger_amount.back()) +
                                  ", '" + MemoOf(seed, new_id) + "')"},
                   {"commit", "COMMIT"}};
          for (const auto& s : stmts) user_bytes += s.second.size();
          break;
        }
        default:
          break;
      }
      out.input_digest = Fnv(out.input_digest, &kind, sizeof(kind));
      for (int64_t x : {row, amount, pos, key, top}) {
        out.input_digest = Fnv(out.input_digest, &x, sizeof(x));
      }

      bool traced = opt.trace && (traced_seq[name]++ % 2 == 1);
      Tracer* tr = traced ? &tracer : &off;
      Counters before = opt.trace ? Counters::Start(ds) : Counters{};
      bool ok = true;
      std::vector<size_t> affected;
      Value shown;
      int64_t t0 = NowNs();
      {
        Span op(tr, Layer::kBench, "op." + name, op_id);
        switch (kind) {
          case kEdit: {
            {
              Span s(tr, Layer::kCore, "core.edit_apply_ms");
              ok = ds.SetCellAt(sheet, row, kAmountCol, input).ok();
            }
            {
              Span s(tr, Layer::kCore, "core.pump_ms.edit");
              ds.Pump();
            }
            Span s(tr, Layer::kSheet, "sheet.read_ms");
            shown = ds.GetValueAt(sheet, kAnchorRow, kAnchorCol);
            break;
          }
          case kScroll: {
            {
              Span s(tr, Layer::kCore, "core.viewport_ms");
              ok = ds.ScrollTo("S", top, 0).ok();
            }
            {
              Span s(tr, Layer::kCore, "core.pump_ms.scroll");
              ds.Pump();
            }
            Span s(tr, Layer::kSheet, "sheet.read_ms");
            shown = ds.GetValueAt(sheet, top, 0);
            break;
          }
          case kRowShift: {
            {
              Span s(tr, Layer::kCatalog, "catalog.shift_ms");
              ok = (insert ? t->InsertRowAt(static_cast<size_t>(pos), new_row)
                           : t->DeleteRowAt(static_cast<size_t>(pos)))
                       .ok();
            }
            {
              Span s(tr, Layer::kCore, "core.pump_ms.row_shift");
              ds.Pump();
            }
            Span s(tr, Layer::kSheet, "sheet.read_ms");
            shown = ds.GetValueAt(sheet, kAnchorRow, kAnchorCol);
            break;
          }
          case kCommit: {
            for (const auto& [stmt, text] : stmts) {
              Span s(tr, Layer::kDb, "db.stmt_ms." + stmt);
              auto rs = ds.Sql(text);
              ok = ok && rs.ok();
              affected.push_back(rs.ok() ? rs.value().affected_rows : 0);
            }
            Span s(tr, Layer::kCore, "core.pump_ms.commit");
            ds.Pump();
            break;
          }
          case kSave: {
            Span s(tr, Layer::kDb, "db.checkpoint_ms");
            ds.db().Checkpoint();
            break;
          }
        }
      }
      int64_t t1 = NowNs();
      double ms = (t1 - t0) / 1e6;
      ms_of[name].push_back(ms);
      if (opt.trace) {
        book.Record(name, Counters::Read(ds).Minus(before));
        book.AddUserBytes(name, user_bytes);
        (traced ? samples.traced_ms : samples.untraced_ms)[name].push_back(ms);
        if (traced && kind == kCommit) {  // parse probes, outside the op
          for (const auto& [stmt, text] : stmts) {
            Span s(&tracer, Layer::kSql, "sql.parse_ms." + stmt);
            ok = dataspread::sql::Parse(text).ok() && ok;
          }
        }
      }

      // ---- Check against the shadow model (outside the timed interval).
      switch (kind) {
        case kEdit: {
          int64_t id = sh.t_ids[static_cast<size_t>(row - 1)];
          sh.sum += amount - sh.amount[static_cast<size_t>(id)];
          sh.amount[static_cast<size_t>(id)] = amount;
          ok = ok && shown == Value::Int(sh.sum) &&
               ds.GetValueAt(sheet, row, kAmountCol) == Value::Int(amount);
          break;
        }
        case kScroll:
          ok = ok && shown == Value::Int(sh.t_ids[static_cast<size_t>(top - 1)]);
          break;
        case kRowShift: {
          if (insert) {
            sh.t_ids.insert(sh.t_ids.begin() + pos, new_id);
            sh.sum += sh.amount[static_cast<size_t>(new_id)];
          } else {
            int64_t gone = sh.t_ids[static_cast<size_t>(pos)];
            sh.sum -= sh.amount[static_cast<size_t>(gone)];
            sh.t_ids.erase(sh.t_ids.begin() + pos);
          }
          ok = ok && shown == Value::Int(sh.sum) &&
               t->num_rows() == sh.t_ids.size();
          if (ok && static_cast<size_t>(pos) < sh.t_ids.size()) {
            auto got = t->GetRowAt(static_cast<size_t>(pos));
            ok = got.ok() &&
                 got.value() == sh.TRow(seed, sh.t_ids[static_cast<size_t>(pos)]);
          }
          int64_t first = sh.t_ids[static_cast<size_t>(top - 1)];
          ok = ok && ds.GetValueAt(sheet, top, 0) == Value::Int(first);
          break;
        }
        case kCommit:
          sh.ledger_amount[static_cast<size_t>(key)] = amount;
          sh.ledger_ids.push_back(new_id);
          ok = ok && affected == std::vector<size_t>{0, 1, 1, 0} &&
               ds.GetValueAt(sheet, kAnchorRow, kAnchorCol) == Value::Int(sh.sum);
          break;
        default:
          break;
      }
      if (!out.Count(name, ok) && out.failed <= 5) {
        out.Note("failed op " + name + " #" + std::to_string(op_id));
      }
      ++op_id;
    }
  }
  const double wal_bytes =
      static_cast<double>(ds.db().pager().stats().wal_bytes - wal_before);
  const int64_t cell_count = static_cast<int64_t>(sheet->cell_count());

  // ---- Reopen: clean close, then kReopens timed Database::Open cycles; the
  // first reopened instance is compared with the shadow model.
  holder.reset();
  std::vector<double> reopen_s;
  for (int k = 0; k < kReopens; ++k) {
    int64_t t0 = NowNs();
    std::unique_ptr<dataspread::Database> db = dataspread::Database::Open(base);
    int64_t t1 = NowNs();
    reopen_s.push_back((t1 - t0) / 1e9);
    if (k > 0) continue;
    auto rt = db->catalog().GetTable("t");
    auto rl = db->catalog().GetTable("ledger");
    bool same =
        rt.ok() && rl.ok() &&
        SameTable(rt.value(), sh.t_ids.size(),
                  [&](size_t i) { return sh.TRow(seed, sh.t_ids[i]); }) &&
        SameTable(rl.value(), sh.ledger_ids.size(), [&](size_t i) {
          return sh.LedgerRow(seed, sh.ledger_ids[i]);
        });
    if (!out.Count("reopen", same)) {
      out.Note("reopened tables differ from the shadow model");
    }
  }
  const int64_t peak_kb = PeakRssKb();

  // ---- The set-ups after the run (the first removes the run's database).
  for (int k = kSetups / 2; k < kSetups; ++k) {
    if (!set_up(k)) return out;
  }
  holder.reset();
  fs::remove_all(fs::path(base).parent_path());

  if (!opt.trace) {
    // A save is about half fsync of the WAL written since the last one, so
    // it follows the host's disk; as one of five kinds in op_p50_ms it
    // moves the metric by a fifth of its own change (in logs).
    ReportEndToEnd(ms_of, setup_s, peak_kb, bench_bytes, &out);
    out.Detail("wal_bytes_per_op", wal_bytes / static_cast<double>(op_id), "B");
    out.Detail("reopen_s", Median(reopen_s), "s");
    NoteSamples("reopen_s", reopen_s, "s", &out);
    return out;
  }

  // ---- Per-layer metrics ----
  ReportLayers(book, Median(import_s), static_cast<size_t>(cell_count), &out);
  SummarizeTrace(tracer, samples, opt, &out);
  return out;
}

}  // namespace perfbench

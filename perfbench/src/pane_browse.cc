// Workload pane_browse: read-only pane movement over a table twelve times
// larger than the buffer pool. Window slides, positional fetch and pool
// faults do the work; sql, exec, the WAL and formula do none of it.
#include <algorithm>
#include <memory>

#include "harness.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 1000000;
constexpr size_t kPoolFrames = 1024;
// Set-ups are timed kSetups times: the first half before the run (the last
// of those serves it), the rest after it, so their median samples the host
// over the whole run.
constexpr int kSetups = 8;
constexpr int64_t kPaneRows = 50;  // DataSpreadOptions::viewport_rows default
// Deck of 20 scrolls: one-pane steps, jumps to a random position, jumps to
// a random key. The three are timed as separate op kinds.
enum Kind { kStep, kJumpPos, kJumpKey };
const std::vector<int> kDeck = {14, 3, 3};
const char* const kKindName[] = {"scroll_step", "scroll_jump_pos",
                                 "scroll_jump_key"};
constexpr double kDecksPerSecond = 20;

// Row contents derive from (seed, id), so checks need no copy of the table.
std::string TextOf(uint64_t seed, int64_t id) {
  Rng r = Rng::Stream(seed, 0x7E47 + static_cast<uint64_t>(id));
  return Word(r, 8);
}
int64_t AmountOf(uint64_t seed, int64_t id) {
  return static_cast<int64_t>(
      Rng::Stream(seed, 0xA30 + static_cast<uint64_t>(id)).Below(100000));
}

struct Pane {
  std::unique_ptr<DataSpread> ds;
  dataspread::Sheet* sheet = nullptr;
  dataspread::Table* table = nullptr;
};

}  // namespace

RunResult RunPaneBrowse(const Options& opt) {
  RunResult out;
  const size_t rows = kRows / static_cast<size_t>(opt.shrink);
  const uint64_t seed = opt.seed;

  // ---- Inputs: CSV text and the key permutation (display order). ----
  const int64_t heap_start = HeapInUseBytes();
  std::vector<int64_t> id_at(rows);
  for (size_t i = 0; i < rows; ++i) id_at[i] = static_cast<int64_t>(i);
  Rng data_rng = Rng::Stream(seed, 1);
  Shuffle(&id_at, data_rng);
  std::vector<size_t> pos_of(rows);
  for (size_t i = 0; i < rows; ++i) pos_of[static_cast<size_t>(id_at[i])] = i;
  // The CSV text is freed during the run and made again for the set-ups
  // after it, so the run's peak RSS holds no input text.
  auto make_csv = [&]() {
    std::string csv = "id,v,amount\n";
    csv.reserve(rows * 24);
    for (size_t i = 0; i < rows; ++i) {
      int64_t id = id_at[i];
      csv += std::to_string(id) + "," + TextOf(seed, id) + "," +
             std::to_string(AmountOf(seed, id)) + "\n";
    }
    return csv;
  };
  std::string csv = make_csv();
  out.input_digest = Fnv(kFnvBasis, csv);
  const int64_t bench_bytes = HeapInUseBytes() - heap_start -
                              static_cast<int64_t>(csv.capacity());

  // ---- Setup ----
  std::vector<double> setup_s, import_s;
  Pane pane;
  auto set_up = [&](int k) {
    pane = Pane{};  // frees the previous instance before building the next
    dataspread::DataSpreadOptions o;
    o.auto_pump = false;
    o.pager.max_resident_pages =
        std::max<size_t>(16, kPoolFrames / static_cast<size_t>(opt.shrink));
    o.pager.spill_path = opt.scratch + "/pane-" + std::to_string(k) + ".spill";
    pane.ds = std::make_unique<DataSpread>(o);
    pane.sheet = pane.ds->AddSheet("S").ValueOrDie();
    int64_t t0 = NowNs();
    auto table = pane.ds->ImportCsvAsTable(csv, "t", "id");
    int64_t t1 = NowNs();
    auto bound = pane.ds->ImportTable("S", "A1", "t");
    pane.ds->Pump();
    int64_t t2 = NowNs();
    if (!table.ok() || !bound.ok()) {
      out.correct = false;
      out.Note("setup failed: " + (table.ok() ? bound.status().ToString()
                                              : table.status().ToString()));
      return false;
    }
    pane.table = table.value();
    setup_s.push_back((t2 - t0) / 1e9);
    import_s.push_back((t1 - t0) / 1e9);
    return true;
  };
  for (int k = 0; k < kSetups / 2; ++k) {
    if (!set_up(k)) return out;
  }
  csv.clear();
  csv.shrink_to_fit();
  if (!ResetPeakRss()) out.Note("could not reset the peak RSS after set-up");
  DataSpread& ds = *pane.ds;
  dataspread::Sheet* sheet = pane.sheet;
  if (pane.table->num_rows() != rows) {
    out.correct = false;
    out.Note("imported row count differs");
    return out;
  }

  // ---- Ops ----
  const int64_t max_top = static_cast<int64_t>(rows) - kPaneRows + 1;
  Rng op_rng = Rng::Stream(seed, 2);
  Tracer tracer(opt.trace), off(false);
  const size_t decks = DeckCount(opt, kDecksPerSecond);
  tracer.Reserve(decks * 20 * 5);
  OpSamples samples;
  CounterBook book;
  std::vector<double> scroll_ms;
  std::map<std::string, std::vector<double>> kind_ms;
  int64_t top = 1, direction = 1;
  uint64_t traced_seq = 0;
  int op_id = 0;
  for (size_t d = 0; d < decks; ++d) {
    for (int kind : Deck(kDeck, op_rng)) {
      // Arguments, drawn before the clock starts.
      int64_t key = -1;
      if (kind == kStep) {
        if (top + direction * kPaneRows < 1 ||
            top + direction * kPaneRows > max_top) {
          direction = -direction;
        }
        top += direction * kPaneRows;
      } else if (kind == kJumpPos) {
        top = 1 + static_cast<int64_t>(op_rng.Below(static_cast<uint64_t>(max_top)));
      } else {
        key = static_cast<int64_t>(op_rng.Below(rows));
        if (static_cast<int64_t>(pos_of[static_cast<size_t>(key)]) + 1 > max_top) {
          key = id_at[static_cast<size_t>(max_top - 1)];
        }
      }
      out.input_digest = Fnv(out.input_digest, &top, sizeof(top));
      out.input_digest = Fnv(out.input_digest, &key, sizeof(key));

      bool traced = opt.trace && (traced_seq++ % 2 == 1);
      Tracer* tr = traced ? &tracer : &off;
      Counters before = opt.trace ? Counters::Start(ds) : Counters{};
      bool ok = true;
      Value first;
      int64_t t0 = NowNs();
      {
        Span op(tr, Layer::kBench, "op.scroll", op_id);
        if (key >= 0) {
          Span s(tr, Layer::kCatalog, "catalog.find_key_ms");
          auto pos = pane.table->FindByKey(Value::Int(key));
          ok = pos.ok();
          top = ok ? static_cast<int64_t>(pos.value()) + 1 : top;
        }
        {
          Span s(tr, Layer::kCore, "core.viewport_ms");
          ok = ds.ScrollTo("S", top, 0).ok() && ok;
        }
        {
          Span s(tr, Layer::kCore, "core.pump_ms.scroll");
          ds.Pump();
        }
        Span s(tr, Layer::kSheet, "sheet.read_ms");
        first = ds.GetValueAt(sheet, top, 0);
      }
      int64_t t1 = NowNs();
      double ms = (t1 - t0) / 1e6;
      if (opt.trace) {
        book.Record("scroll", Counters::Read(ds).Minus(before));
        (traced ? samples.traced_ms : samples.untraced_ms)["scroll"].push_back(ms);
      }
      scroll_ms.push_back(ms);
      kind_ms[kKindName[kind]].push_back(ms);

      // Check the pane's first row against the generated table.
      size_t pos = static_cast<size_t>(top - 1);
      int64_t id = id_at[pos];
      ok = ok && (key < 0 || id == key) && first == Value::Int(id) &&
           ds.GetValueAt(sheet, top, 1) == Value::Text(TextOf(seed, id)) &&
           ds.GetValueAt(sheet, top, 2) == Value::Int(AmountOf(seed, id));
      out.Count("scroll", ok);
      ++op_id;
    }
  }
  const int64_t peak_kb = PeakRssKb();
  const size_t cell_count = sheet->cell_count();

  // ---- The set-ups after the run (the first frees the serving instance).
  csv = make_csv();
  for (int k = kSetups / 2; k < kSetups; ++k) {
    if (!set_up(k)) return out;
  }
  pane = Pane{};
  csv = std::string();

  if (!opt.trace) {
    ReportEndToEnd(kind_ms, setup_s, peak_kb, bench_bytes, &out);
    ReportLatency("scroll", scroll_ms, &out);
    return out;
  }

  // ---- Per-layer metrics ----
  ReportLayers(book, Median(import_s), cell_count, &out);
  SummarizeTrace(tracer, samples, opt, &out);
  return out;
}

}  // namespace perfbench

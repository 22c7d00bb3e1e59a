// Shared machinery of the DataSpread end-to-end benchmark: a seeded RNG
// whose output does not depend on the standard library, timing and
// percentile helpers, process memory probes, the span tracer, the per-op
// counter snapshots, and the result writer.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/dataspread.h"

namespace perfbench {

using dataspread::DataSpread;
using dataspread::Row;
using dataspread::Value;

// ---------------------------------------------------------------------------
// Options and results
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory the run may write to (spill and database files).
  std::string scratch = ".";
  /// Divides every table size and op count; the self-tests run at 50.
  int shrink = 1;
  /// Traced runs write every span here as CSV when non-empty.
  std::string spans_path;
};

/// What one workload run hands back to main(): the metrics of the mode it
/// ran in, op accounting, and diagnostic lines.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failed_by_op;
  /// name -> (value, unit), emitted in name order. Every workload sets the
  /// same names (those of BENCHMARK.json for the mode it ran in).
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Figures of one workload's own op kinds, spans and queries, printed as
  /// "# detail <name> <value> <unit>" lines ahead of the result.
  std::map<std::string, std::pair<double, std::string>> details;
  std::vector<std::string> notes;
  /// Digest of the generated inputs (CSV text and the op schedule).
  uint64_t input_digest = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details[name] = {value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Counts one attempted op of kind `op`: a non-OK status or a failed
  /// check (`ok` false) counts as a failed op of that kind. Returns `ok`.
  bool Count(const std::string& op, bool ok) {
    attempted += 1;
    if (!ok) {
      failed += 1;
      failed_by_op[op] += 1;
    }
    return ok;
  }
};

RunResult RunPaneBrowse(const Options& opt);
RunResult RunSheetEdit(const Options& opt);
RunResult RunQueryMix(const Options& opt);

// ---------------------------------------------------------------------------
// Deterministic inputs
// ---------------------------------------------------------------------------

/// splitmix64: the same seed yields the same stream on every platform and
/// standard library (std::uniform_int_distribution does not promise that).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (n > 0; the modulo bias is irrelevant here).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// An independent stream derived from this one's seed and a tag.
  static Rng Stream(uint64_t seed, uint64_t tag) {
    Rng r(seed * 0x2545F4914F6CDD1Dull + tag);
    r.Next();
    return r;
  }

 private:
  uint64_t state_;
};

/// A seeded golden-ratio sequence in [0, 1): consecutive draws cover the
/// interval evenly, so a run's parameter mix (and the medians that depend
/// on it) is nearly the same for every seed while each seed still gives
/// different values.
class EvenSpread {
 public:
  explicit EvenSpread(Rng& rng)
      : u_(static_cast<double>(rng.Next() >> 11) * 0x1.0p-53) {}
  double Next() {
    u_ += 0.6180339887498949;
    if (u_ >= 1.0) u_ -= 1.0;
    return u_;
  }
  /// An integer in [0, n).
  uint64_t Below(uint64_t n) {
    return std::min<uint64_t>(n - 1, static_cast<uint64_t>(Next() * n));
  }

 private:
  double u_;
};

/// Lower-case word of `len` letters.
std::string Word(Rng& rng, size_t len);

/// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>* v, Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
  }
}

/// A deck of op kinds: `counts[k]` copies of kind k, shuffled. Workloads
/// deal ops from consecutive decks so every kind is spread over the whole
/// run and the per-kind counts are exact.
std::vector<int> Deck(const std::vector<int>& counts, Rng& rng);

/// FNV-1a over bytes, chained through `h`.
uint64_t Fnv(uint64_t h, const void* data, size_t n);
inline uint64_t Fnv(uint64_t h, const std::string& s) {
  return Fnv(h, s.data(), s.size());
}
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ull;

/// Number of decks a run deals: `decks_per_second` x seconds divided by the
/// shrink factor, and at least 2, so every op kind has a traced occurrence.
size_t DeckCount(const Options& opt, double decks_per_second);

// ---------------------------------------------------------------------------
// Timing and statistics
// ---------------------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of unsorted samples; 0 for an
/// empty set.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

/// Resident set size now, and its high-water mark, in KiB (/proc/self).
int64_t RssKb();
int64_t PeakRssKb();
/// Bytes of heap the process has allocated and not freed (glibc mallinfo2;
/// 0 elsewhere). Unlike RSS it is not masked by freed memory the allocator
/// keeps resident.
int64_t HeapInUseBytes();
/// Starts the run phase's memory accounting, once set-up is done and the
/// input text is freed: returns freed heap to the system and resets the
/// high-water mark to the current RSS (writing "5" to /proc/self/clear_refs,
/// Linux 4.0+), so the peak then covers the run phase only. False if the
/// mark could not be reset.
bool ResetPeakRss();

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's calls into each layer
// ---------------------------------------------------------------------------

/// The src/ modules the benchmark calls into directly, so a span can be
/// charged to them. formula, io and storage are reached only through these;
/// their per-layer metrics are counters. kBench is the benchmark's own code
/// between calls (the op span's self time).
enum class Layer { kBench, kCore, kSheet, kSql, kExec, kDb, kCatalog, kCount };
const char* LayerName(Layer layer);

struct SpanRecord {
  int name;  ///< interned; Tracer::name() gives e.g. "core.pump_ms.edit"
  Layer layer;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  ///< index of the enclosing span, -1 for a root
  int op;      ///< op sequence number, -1 for a probe outside any op
};

/// Records spans in memory; summarised when the run ends. Disabled tracers
/// record nothing, so untraced runs pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Reserves room for `n` spans, so recording allocates nothing mid-run.
  void Reserve(size_t n) { spans_.reserve(n); }
  int Begin(const std::string& name, Layer layer, int op);
  void End(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Writes every span as CSV (op, name, layer, start_ns, end_ns, parent).
  bool WriteCsv(const std::string& path) const;
  const std::string& name(const SpanRecord& s) const {
    return names_[static_cast<size_t>(s.name)];
  }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::vector<std::string> names_;
  std::map<std::string, int> name_ids_;
};

/// RAII span. With a disabled tracer it costs nothing but the check.
class Span {
 public:
  Span(Tracer* tracer, Layer layer, const std::string& name, int op = -1)
      : tracer_(tracer),
        index_(tracer->enabled() ? tracer->Begin(name, layer, op) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Per-op latencies of traced and untraced occurrences, by op kind.
struct OpSamples {
  std::map<std::string, std::vector<double>> untraced_ms;
  std::map<std::string, std::vector<double>> traced_ms;
};

/// Adds the trace summary to `out`. Metrics: each layer's share of the
/// traced ops' time ("<layer>.self_pct": its spans' self time over all
/// traced ops / their summed latency, in %) and the tracing overhead
/// ("trace.overhead_ms_per_op"). Details: the mean self time per op kind
/// and layer ("self_ms.<layer>.<op>") and the median duration of every
/// named span other than the op roots (a span is named after its figure).
/// Per op kind the self times must sum to the mean traced latency as timed
/// around the op, within 2% plus 10 us; a mismatch marks the run incorrect.
/// Writes the spans to `opt.spans_path` when it is set.
void SummarizeTrace(const Tracer& tracer, const OpSamples& samples,
                    const Options& opt, RunResult* out);

// ---------------------------------------------------------------------------
// Counters read at op boundaries
// ---------------------------------------------------------------------------

struct Counters {
  uint64_t tasks = 0;
  uint64_t binding_refreshes = 0;
  uint64_t dbsql_runs = 0;
  uint64_t dbsql_hits = 0;
  uint64_t cells_evaluated = 0;
  uint64_t statements = 0;
  dataspread::storage::PagerStats pager;
  /// Distinct pages read since Start() (the pager's epoch counter).
  uint64_t epoch_pages = 0;
  /// Live heap bytes and RSS; their deltas are signed.
  int64_t heap_bytes = 0;
  int64_t rss_kb = 0;

  /// Opens a pager epoch, then reads every counter: call before an op.
  static Counters Start(DataSpread& ds);
  /// Reads every counter: call after the op.
  static Counters Read(DataSpread& ds);
  /// this - before, field by field.
  Counters Minus(const Counters& before) const;
  void Add(const Counters& d);
};

/// Per-op-kind counter totals and op counts of a traced run, plus what the
/// benchmark itself knows about each op: rows a query returned and bytes of
/// user input an op carried.
class CounterBook {
 public:
  void Record(const std::string& op, const Counters& delta) {
    totals_[op].Add(delta);
    ops_[op] += 1;
  }
  void AddRowsOut(const std::string& op, uint64_t n) { rows_out_[op] += n; }
  void AddUserBytes(const std::string& op, uint64_t n) { user_bytes_[op] += n; }

  std::vector<std::string> kinds() const;
  const Counters& total(const std::string& op) const;
  double ops(const std::string& op) const;
  double rows_out(const std::string& op) const;
  double user_bytes(const std::string& op) const;

 private:
  std::map<std::string, Counters> totals_;
  std::map<std::string, uint64_t> ops_, rows_out_, user_bytes_;
};

/// Sets the per-layer metrics every workload shares from `book`: counts per
/// op over all its ops (core, formula, db, exec, storage), the pool's
/// `storage.hit_rate`, memory growth per op (`sheet.*_kb_per_op`), plus
/// `io.csv_import_s` (median import time of one set-up) and
/// `sheet.cell_count` (cells the sheet holds after the run). Per op kind the
/// same counts are details ("<metric>.<op>").
void ReportLayers(const CounterBook& book, double csv_import_s,
                  size_t cell_count, RunResult* out);

// ---------------------------------------------------------------------------
// End-to-end metrics
// ---------------------------------------------------------------------------

/// Sets the end-to-end metrics every workload shares: `op_p50_ms`, the
/// geometric mean over the op kinds in `ms_by_kind` of each kind's p50
/// latency; `setup_s`, the median of the timed set-ups; `peak_rss_mb` (see
/// ReportPeakRss). Each kind's p50 and p90 are details ("<op>_p50_ms"), and
/// its p99 and sample count a note line.
void ReportEndToEnd(const std::map<std::string, std::vector<double>>& ms_by_kind,
                    const std::vector<double>& setup_s, int64_t peak_kb,
                    int64_t bench_bytes, RunResult* out);

/// Adds a note line with the op's p50/p90/p99, sample count and failed ops,
/// and its p50 and p90 as details.
void ReportLatency(const std::string& op, const std::vector<double>& ms,
                   RunResult* out);

/// Sets "peak_rss_mb" from `peak_kb`, the high-water RSS between
/// ResetPeakRss() and the end of the run, and notes how much of it is the
/// benchmark's own data (`bench_bytes`: its shadow model, expected answers
/// and any input text it keeps), which the engine does not own.
void ReportPeakRss(int64_t peak_kb, int64_t bench_bytes, RunResult* out);

/// Notes the sample count, minimum, median and maximum of a repeated
/// measurement such as set-up time.
void NoteSamples(const std::string& name, const std::vector<double>& v,
                 const char* unit, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace perfbench {

std::string Word(Rng& rng, size_t len) {
  std::string w(len, 'a');
  for (char& c : w) c = static_cast<char>('a' + rng.Below(26));
  return w;
}

std::vector<int> Deck(const std::vector<int>& counts, Rng& rng) {
  std::vector<int> deck;
  for (size_t k = 0; k < counts.size(); ++k) {
    deck.insert(deck.end(), static_cast<size_t>(counts[k]),
                static_cast<int>(k));
  }
  Shuffle(&deck, rng);
  return deck;
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

size_t DeckCount(const Options& opt, double decks_per_second) {
  double decks = decks_per_second * opt.seconds / opt.shrink;
  return std::max<size_t>(2, static_cast<size_t>(std::lround(decks)));
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

namespace {

int64_t StatusFieldKb(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  size_t n = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, n) == 0 && line[n] == ':') {
      kb = std::atoll(line + n + 1);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

int64_t RssKb() { return StatusFieldKb("VmRSS"); }
int64_t PeakRssKb() { return StatusFieldKb("VmHWM"); }

int64_t HeapInUseBytes() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
#else
  return 0;
#endif
}

bool ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kCore: return "core";
    case Layer::kSheet: return "sheet";
    case Layer::kSql: return "sql";
    case Layer::kExec: return "exec";
    case Layer::kDb: return "db";
    case Layer::kCatalog: return "catalog";
    case Layer::kCount: break;
  }
  return "?";
}

int Tracer::Begin(const std::string& name, Layer layer, int op) {
  auto [it, fresh] = name_ids_.emplace(name, static_cast<int>(names_.size()));
  if (fresh) names_.push_back(name);
  int parent = stack_.empty() ? -1 : stack_.back();
  if (parent >= 0) op = spans_[static_cast<size_t>(parent)].op;
  spans_.push_back(SpanRecord{it->second, layer, 0, 0, parent, op});
  int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  spans_.back().start_ns = NowNs();  // last, so bookkeeping is not charged
  return index;
}

void Tracer::End(int index) {
  int64_t now = NowNs();
  spans_[static_cast<size_t>(index)].end_ns = now;
  stack_.pop_back();
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op,name,layer,start_ns,end_ns,parent\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(f, "%d,%s,%s,%lld,%lld,%d\n", s.op, name(s).c_str(),
                 LayerName(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

void SummarizeTrace(const Tracer& tracer, const OpSamples& samples,
                    const Options& opt, RunResult* out) {
  if (!opt.spans_path.empty() && !tracer.WriteCsv(opt.spans_path)) {
    out->Note("could not write spans to " + opt.spans_path);
  }
  const auto& spans = tracer.spans();
  // Child coverage of each span (children never overlap: calls nest).
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  // Root op spans: op id -> kind.
  std::map<int, std::string> kind_of_op;
  std::map<std::string, int> root_count;
  for (const SpanRecord& s : spans) {
    const std::string& name = tracer.name(s);
    if (s.parent < 0 && s.op >= 0 && name.rfind("op.", 0) == 0) {
      std::string kind = name.substr(3);
      kind_of_op[s.op] = kind;
      root_count[kind] += 1;
    }
  }
  const size_t layers = static_cast<size_t>(Layer::kCount);
  std::map<std::string, std::vector<double>> self_ms;  // kind -> per layer
  std::map<std::string, std::vector<double>> span_ms;  // name -> durations
  std::vector<double> all_self_ms(layers, 0.0);        // over every kind
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string& name = tracer.name(s);
    if (name.rfind("op.", 0) != 0) {
      span_ms[name].push_back((s.end_ns - s.start_ns) / 1e6);
    }
    if (s.op < 0) continue;
    auto k = kind_of_op.find(s.op);
    if (k == kind_of_op.end()) continue;
    auto& per_layer = self_ms[k->second];
    per_layer.resize(layers, 0.0);
    double ms = (s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    per_layer[static_cast<size_t>(s.layer)] += ms;
    all_self_ms[static_cast<size_t>(s.layer)] += ms;
  }
  double all_ms = 0;
  for (double ms : all_self_ms) all_ms += ms;
  for (size_t l = 0; l < layers; ++l) {
    // The benchmark's own glue is in the note lines, not a metric.
    if (static_cast<Layer>(l) == Layer::kBench) continue;
    out->Set(std::string(LayerName(static_cast<Layer>(l))) + ".self_pct",
             all_ms > 0 ? 100.0 * all_self_ms[l] / all_ms : 0.0, "%");
  }
  for (const auto& [kind, per_layer] : self_ms) {
    double n = root_count[kind];
    // The op's latency as timed outside its spans (t1 - t0 around the op).
    auto timed = samples.traced_ms.find(kind);
    double traced_mean = 0;
    if (timed != samples.traced_ms.end()) {
      for (double ms : timed->second) traced_mean += ms;
      traced_mean /= n;
    }
    double sum = 0;
    std::string table = "self ms/op " + kind + ":";
    for (size_t l = 0; l < per_layer.size(); ++l) {
      if (per_layer[l] == 0.0) continue;
      double mean = per_layer[l] / n;
      sum += mean;
      std::string layer = LayerName(static_cast<Layer>(l));
      char cell[64];
      std::snprintf(cell, sizeof(cell), " %s=%.4f", layer.c_str(), mean);
      table += cell;
      if (static_cast<Layer>(l) != Layer::kBench) {
        out->Detail("self_ms." + layer + "." + kind, mean, "ms");
      }
    }
    char total[96];
    std::snprintf(total, sizeof(total), " | sum=%.4f traced latency=%.4f",
                  sum, traced_mean);
    out->Note(table + total);
    // Self times tile each op's span tree, so their sum is the root span;
    // what can go missing is time spent outside the root span but inside
    // the op's clock. Allow the span bookkeeping itself: 2% plus 10 us.
    if (timed == samples.traced_ms.end() ||
        timed->second.size() != static_cast<size_t>(n) ||
        std::fabs(sum - traced_mean) > 0.02 * traced_mean + 0.01) {
      out->correct = false;
      out->Note("self times of " + kind + " do not add up to its latency");
    }
  }
  for (const auto& [name, ms] : span_ms) out->Detail(name, Median(ms), "ms");
  // Overhead: traced minus untraced median per kind, weighted by samples.
  double weighted = 0, n_all = 0;
  for (const auto& [kind, traced] : samples.traced_ms) {
    auto u = samples.untraced_ms.find(kind);
    if (u == samples.untraced_ms.end() || u->second.empty() || traced.empty()) {
      continue;
    }
    double n = static_cast<double>(traced.size());
    weighted += n * (Median(traced) - Median(u->second));
    n_all += n;
  }
  out->Set("trace.overhead_ms_per_op", n_all > 0 ? weighted / n_all : 0.0, "ms");
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

Counters Counters::Start(DataSpread& ds) {
  ds.db().pager().BeginEpoch();
  return Read(ds);
}

Counters Counters::Read(DataSpread& ds) {
  Counters c;
  c.tasks = ds.scheduler().total_executed();
  for (const auto& b : ds.interface_manager().bindings()) {
    c.binding_refreshes += b->refreshes();
  }
  c.dbsql_runs = ds.interface_manager().dbsql_executions();
  c.dbsql_hits = ds.interface_manager().dbsql_cache_hits();
  c.cells_evaluated = ds.engine().cells_evaluated();
  c.statements = ds.db().statements_executed();
  c.pager = ds.db().pager().stats();
  c.epoch_pages = ds.db().pager().EpochPagesRead();
  c.heap_bytes = HeapInUseBytes();
  c.rss_kb = RssKb();
  return c;
}

namespace {

// Applies `op` to every PagerStats counter.
template <typename Op>
void ForEachPagerField(dataspread::storage::PagerStats* a,
                       const dataspread::storage::PagerStats& b, Op op) {
  op(a->slot_reads, b.slot_reads);
  op(a->slot_writes, b.slot_writes);
  op(a->pages_allocated, b.pages_allocated);
  op(a->pages_freed, b.pages_freed);
  op(a->pages_flushed, b.pages_flushed);
  op(a->pins, b.pins);
  op(a->faults, b.faults);
  op(a->readaheads, b.readaheads);
  op(a->evictions, b.evictions);
  op(a->scan_evictions, b.scan_evictions);
  op(a->spill_bytes_written, b.spill_bytes_written);
  op(a->spill_bytes_read, b.spill_bytes_read);
  op(a->spill_dead_bytes, b.spill_dead_bytes);
  op(a->wal_records, b.wal_records);
  op(a->wal_bytes, b.wal_bytes);
  op(a->wal_syncs, b.wal_syncs);
}

}  // namespace

Counters Counters::Minus(const Counters& before) const {
  Counters d = *this;
  d.tasks -= before.tasks;
  d.binding_refreshes -= before.binding_refreshes;
  d.dbsql_runs -= before.dbsql_runs;
  d.dbsql_hits -= before.dbsql_hits;
  d.cells_evaluated -= before.cells_evaluated;
  d.statements -= before.statements;
  ForEachPagerField(&d.pager, before.pager,
                    [](uint64_t& x, uint64_t y) { x -= y; });
  d.epoch_pages -= before.epoch_pages;
  d.heap_bytes -= before.heap_bytes;
  d.rss_kb -= before.rss_kb;
  return d;
}

void Counters::Add(const Counters& d) {
  tasks += d.tasks;
  binding_refreshes += d.binding_refreshes;
  dbsql_runs += d.dbsql_runs;
  dbsql_hits += d.dbsql_hits;
  cells_evaluated += d.cells_evaluated;
  statements += d.statements;
  ForEachPagerField(&pager, d.pager, [](uint64_t& x, uint64_t y) { x += y; });
  epoch_pages += d.epoch_pages;
  heap_bytes += d.heap_bytes;
  rss_kb += d.rss_kb;
}

std::vector<std::string> CounterBook::kinds() const {
  std::vector<std::string> k;
  for (const auto& [op, n] : ops_) k.push_back(op);
  return k;
}

const Counters& CounterBook::total(const std::string& op) const {
  static const Counters kNone;
  auto it = totals_.find(op);
  return it == totals_.end() ? kNone : it->second;
}

namespace {

double Lookup(const std::map<std::string, uint64_t>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : static_cast<double>(it->second);
}

}  // namespace

double CounterBook::ops(const std::string& op) const { return Lookup(ops_, op); }
double CounterBook::rows_out(const std::string& op) const {
  return Lookup(rows_out_, op);
}
double CounterBook::user_bytes(const std::string& op) const {
  return Lookup(user_bytes_, op);
}

void ReportLayers(const CounterBook& book, double csv_import_s,
                  size_t cell_count, RunResult* out) {
  using F = double (*)(const Counters&);
  // Per-op counts: metric name, unit, field.
  struct Count {
    const char* name;
    const char* unit;
    F f;
  };
  static const Count kCounts[] = {
      {"core.tasks_per_op", "count", [](const Counters& c) { return double(c.tasks); }},
      {"core.binding_refreshes_per_op", "count",
       [](const Counters& c) { return double(c.binding_refreshes); }},
      {"core.dbsql_runs_per_op", "count",
       [](const Counters& c) { return double(c.dbsql_runs); }},
      {"formula.cells_evaluated_per_op", "count",
       [](const Counters& c) { return double(c.cells_evaluated); }},
      {"db.statements_per_op", "count",
       [](const Counters& c) { return double(c.statements); }},
      {"storage.slot_reads_per_op", "count",
       [](const Counters& c) { return double(c.pager.slot_reads); }},
      {"storage.slot_writes_per_op", "count",
       [](const Counters& c) { return double(c.pager.slot_writes); }},
      {"storage.pins_per_op", "count", [](const Counters& c) { return double(c.pager.pins); }},
      {"storage.faults_per_op", "count",
       [](const Counters& c) { return double(c.pager.faults); }},
      {"storage.readaheads_per_op", "count",
       [](const Counters& c) { return double(c.pager.readaheads); }},
      {"storage.evictions_per_op", "count",
       [](const Counters& c) { return double(c.pager.evictions); }},
      {"storage.spill_read_bytes_per_op", "B",
       [](const Counters& c) { return double(c.pager.spill_bytes_read); }},
      {"storage.spill_write_bytes_per_op", "B",
       [](const Counters& c) { return double(c.pager.spill_bytes_written); }},
      {"storage.pages_flushed_per_op", "count",
       [](const Counters& c) { return double(c.pager.pages_flushed); }},
      {"storage.wal_bytes_per_op", "B",
       [](const Counters& c) { return double(c.pager.wal_bytes); }},
      {"storage.wal_records_per_op", "count",
       [](const Counters& c) { return double(c.pager.wal_records); }},
      {"storage.wal_syncs_per_op", "count",
       [](const Counters& c) { return double(c.pager.wal_syncs); }},
      {"sheet.heap_kb_per_op", "KB",
       [](const Counters& c) { return c.heap_bytes / 1024.0; }},
      {"sheet.rss_kb_per_op", "KB", [](const Counters& c) { return double(c.rss_kb); }},
  };
  Counters all;
  double n_all = 0, rows_all = 0, user_all = 0, user_wal = 0;
  for (const std::string& op : book.kinds()) {
    const Counters& c = book.total(op);
    const double n = book.ops(op);
    all.Add(c);
    n_all += n;
    for (const Count& k : kCounts) {
      out->Detail(std::string(k.name) + "." + op, k.f(c) / n, k.unit);
    }
    rows_all += book.rows_out(op);
    if (book.user_bytes(op) > 0) {
      user_all += book.user_bytes(op);
      user_wal += static_cast<double>(c.pager.wal_bytes);
    }
    if (book.rows_out(op) > 0) {
      out->Detail("exec.rows_out." + op, book.rows_out(op) / n, "count");
      out->Detail("storage.slot_reads_per_row_out." + op,
                  c.pager.slot_reads / book.rows_out(op), "count");
    }
  }
  if (n_all == 0) n_all = 1;
  for (const Count& k : kCounts) out->Set(k.name, k.f(all) / n_all, k.unit);
  const double dbsql = static_cast<double>(all.dbsql_runs + all.dbsql_hits);
  out->Set("core.dbsql_cache_hit_ratio", dbsql > 0 ? all.dbsql_hits / dbsql : 0.0,
           "ratio");
  out->Set("exec.rows_out_per_op", rows_all / n_all, "count");
  // Per page access: a distinct page an op reads is resident or faulted in.
  const double pages = static_cast<double>(all.epoch_pages);
  out->Set("storage.hit_rate",
           pages > 0 ? (pages - static_cast<double>(all.pager.faults)) / pages : 1.0,
           "ratio");
  out->Set("storage.wal_bytes_per_user_byte",
           user_all > 0 ? user_wal / user_all : 0.0, "ratio");
  out->Set("io.csv_import_s", csv_import_s, "s");
  out->Set("sheet.cell_count", static_cast<double>(cell_count), "count");
}

// ---------------------------------------------------------------------------
// End-to-end metrics and note lines
// ---------------------------------------------------------------------------

void ReportEndToEnd(const std::map<std::string, std::vector<double>>& ms_by_kind,
                    const std::vector<double>& setup_s, int64_t peak_kb,
                    int64_t bench_bytes, RunResult* out) {
  double log_p50 = 0;
  for (const auto& [op, ms] : ms_by_kind) {
    ReportLatency(op, ms, out);
    log_p50 += std::log(Median(ms));
  }
  const double kinds = static_cast<double>(std::max<size_t>(1, ms_by_kind.size()));
  out->Set("op_p50_ms", std::exp(log_p50 / kinds), "ms");
  out->Set("setup_s", Median(setup_s), "s");
  NoteSamples("setup_s", setup_s, "s", out);
  ReportPeakRss(peak_kb, bench_bytes, out);
}

void ReportLatency(const std::string& op, const std::vector<double>& ms,
                   RunResult* out) {
  out->Detail(op + "_p50_ms", Median(ms), "ms");
  out->Detail(op + "_p90_ms", Quantile(ms, 0.9), "ms");
  char line[256];
  auto failed = out->failed_by_op.find(op);
  std::snprintf(line, sizeof(line),
                "op %-15s n=%zu failed=%llu p50=%.4f p90=%.4f p99=%.4f ms",
                op.c_str(), ms.size(),
                static_cast<unsigned long long>(
                    failed == out->failed_by_op.end() ? 0 : failed->second),
                Median(ms), Quantile(ms, 0.9), Quantile(ms, 0.99));
  out->Note(line);
}

void ReportPeakRss(int64_t peak_kb, int64_t bench_bytes, RunResult* out) {
  double peak_mb = peak_kb / 1024.0;
  out->Set("peak_rss_mb", peak_mb, "MB");
  char line[160];
  std::snprintf(line, sizeof(line),
                "peak_rss_mb %.1f MB in the run, of which %.1f MB is the "
                "benchmark's own data",
                peak_mb, bench_bytes / 1048576.0);
  out->Note(line);
}

void NoteSamples(const std::string& name, const std::vector<double>& v,
                 const char* unit, RunResult* out) {
  char line[192];
  std::snprintf(line, sizeof(line), "%s n=%zu min=%.4f p50=%.4f max=%.4f %s",
                name.c_str(), v.size(), Quantile(v, 0), Median(v),
                Quantile(v, 1), unit);
  out->Note(line);
}

}  // namespace perfbench

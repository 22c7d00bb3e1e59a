// Experiment C3 (paper §3): "We introduce a new type of index, positional,
// which makes interface-oriented operations, e.g., ordered presentation,
// efficient." Series: get-by-position / insert-at / erase-at / window fetch,
// counted B+-tree vs the shifting-array baseline, vs element count; and the
// reverse direction, key → display position (Table::FindByKey), at 10k, 100k
// and 1M rows, appended as {rows, nproc, op_ms} to BENCH_positional.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <random>
#include <thread>

#include "index/offset_array.h"
#include "index/positional_index.h"
#include "workloads.h"

namespace dataspread {
namespace {

template <typename Index>
Index MakeFilled(size_t n) {
  std::vector<uint64_t> payloads(n);
  for (size_t i = 0; i < n; ++i) payloads[i] = i;
  Index idx;
  idx.Build(payloads);
  return idx;
}

template <typename Index>
void RunRandomGet(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Index idx = MakeFilled<Index>(n);
  std::mt19937 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Get(rng() % n));
  }
  state.SetLabel(std::to_string(n) + " elements");
}

template <typename Index>
void RunRandomInsertErase(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Index idx = MakeFilled<Index>(n);
  std::mt19937 rng(7);
  for (auto _ : state) {
    size_t pos = rng() % (idx.size() + 1);
    (void)idx.InsertAt(pos, pos);
    (void)idx.EraseAt(rng() % idx.size());
  }
  state.SetLabel(std::to_string(n) + " elements");
}

template <typename Index>
void RunWindowFetch(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Index idx = MakeFilled<Index>(n);
  std::mt19937 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.GetRange(rng() % n, 50));
  }
  state.SetLabel(std::to_string(n) + " elements, 50-row window");
}

void BM_Positional_Get_Tree(benchmark::State& s) {
  RunRandomGet<PositionalIndex>(s);
}
void BM_Positional_Get_Array(benchmark::State& s) {
  RunRandomGet<OffsetArray>(s);
}
void BM_Positional_InsertErase_Tree(benchmark::State& s) {
  RunRandomInsertErase<PositionalIndex>(s);
}
void BM_Positional_InsertErase_Array(benchmark::State& s) {
  RunRandomInsertErase<OffsetArray>(s);
}
void BM_Positional_Window_Tree(benchmark::State& s) {
  RunWindowFetch<PositionalIndex>(s);
}
void BM_Positional_Window_Array(benchmark::State& s) {
  RunWindowFetch<OffsetArray>(s);
}

BENCHMARK(BM_Positional_Get_Tree)->Arg(1000)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Positional_Get_Array)->Arg(1000)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Positional_InsertErase_Tree)
    ->Arg(1000)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Positional_InsertErase_Array)
    ->Arg(1000)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Positional_Window_Tree)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Positional_Window_Array)->Arg(100000)->Arg(1000000);

// Bulk build cost (table load path).
void BM_Positional_BulkBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> payloads(n);
  for (size_t i = 0; i < n; ++i) payloads[i] = i;
  for (auto _ : state) {
    PositionalIndex idx;
    idx.Build(payloads);
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Positional_BulkBuild)->Arg(1000000)->Unit(benchmark::kMillisecond);

// Key → display position (DESIGN.md §10): a PK probe, then the order
// index's row locator. The table is loaded by inserts at random display
// positions, so display order, row ids and key order all differ and the
// tree's leaves are as partly filled as an edited table's. Keys are drawn
// uniformly over the whole table, as perfbench's pane_browse key jumps are.
// At 1M rows nearly every probe misses the caches and the TLB on each
// structure it touches (hash slot, row map, storage page, locator, leaf),
// so the curve rises with memory latency (~10x from 10k to 1M rows) rather
// than with the row count (the O(n) order scan this replaced was ~600x:
// 0.04 ms at 10k, 24 ms at 1M rows). ci/check.sh gates 1M <= 30x 10k.
void BM_Positional_FindByKey(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::unique_ptr<Table> table =
      Table::Create("t",
                    Schema({ColumnDef{"id", DataType::kInt, true},
                            ColumnDef{"v", DataType::kInt, false}}),
                    StorageModel::kHybrid, nullptr,
                    bench::PagerConfigFromEnv())
          .ValueOrDie();
  table->ReserveRows(n);
  std::mt19937_64 load(7);
  for (size_t i = 0; i < n; ++i) {
    (void)table->InsertRowAt(load() % (i + 1),
                             {Value::Int(static_cast<int64_t>(i)),
                              Value::Int(static_cast<int64_t>(i % 1000))});
  }
  std::mt19937_64 rng(11);
  size_t misses = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto pos = table->FindByKey(Value::Int(static_cast<int64_t>(rng() % n)));
    if (!pos.ok()) ++misses;
    benchmark::DoNotOptimize(pos);
  }
  const double total_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (misses > 0) state.SkipWithError("FindByKey missed a present key");
  const double iterations = static_cast<double>(state.iterations());
  const double op_ms = iterations > 0 ? total_s * 1e3 / iterations : 0;
  state.counters["op_ms"] = op_ms;
  state.SetLabel(std::to_string(n) + " rows");
  bench::AppendBenchJsonLine(
      "positional", "FindByKey/" + std::to_string(n),
      {{"iterations", iterations},
       {"rows", static_cast<double>(n)},
       {"nproc", static_cast<double>(std::thread::hardware_concurrency())},
       {"op_ms", op_ms}});
}
// Fixed iterations: one measured run per size, so each run writes one JSON
// line.
BENCHMARK(BM_Positional_FindByKey)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Iterations(200000);

}  // namespace
}  // namespace dataspread

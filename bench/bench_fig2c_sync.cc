// Experiment F2c (paper Figure 2c): two-way synchronization latency.
// Series: (i) front-end edit -> keyed UPDATE -> refreshed region + dependent
// DBSQL; (ii) back-end UPDATE -> sheet refresh; (iii) a burst of back-end
// INSERTs coalescing into one refresh. Swept over bound table size; each run
// appends {op_ms, rows, nproc} to BENCH_sync.json, so the trajectory shows
// whether sync cost stays flat as the table grows (DESIGN.md §9).
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "workloads.h"

namespace dataspread::bench {
namespace {

/// The bound table: id INT PRIMARY KEY, v TEXT, amount INT. The INT amount
/// makes the dependent SUM an incrementally maintained aggregate.
void LoadSyncTable(Database* db, size_t rows) {
  Table* table =
      db->CreateTable("t", Schema({ColumnDef{"id", DataType::kInt, true},
                                   ColumnDef{"v", DataType::kText, false},
                                   ColumnDef{"amount", DataType::kInt, false}}))
          .ValueOrDie();
  for (size_t i = 0; i < rows; ++i) {
    (void)table->AppendRow({Value::Int(static_cast<int64_t>(i)),
                            Value::Text("row" + std::to_string(i)),
                            Value::Int(static_cast<int64_t>(i % 1000))});
  }
}

struct SyncFixture {
  explicit SyncFixture(size_t rows) {
    DataSpreadOptions opts;
    opts.auto_pump = false;
    opts.binding_window = 64;
    ds = std::make_unique<DataSpread>(opts);
    LoadSyncTable(&ds->db(), rows);
    sheet = ds->AddSheet("S").ValueOrDie();
    (void)ds->ImportTable("S", "A1", "t");
    // A dependent aggregate over the bound amount column (Figure 2c's DBSQL
    // region that must update "immediately").
    (void)ds->SetCellAt(sheet, 0, 5, "=DBSQL(\"SELECT SUM(amount) FROM t\")");
    ds->Pump();
  }
  std::unique_ptr<DataSpread> ds;
  Sheet* sheet = nullptr;
};

/// Wall time of the timed loop, reported per iteration to BENCH_sync.json.
class OpTimer {
 public:
  void Start() { t0_ = std::chrono::steady_clock::now(); }
  void Stop() {
    total_s_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
  }
  void Report(benchmark::State& state, const std::string& run) const {
    const double iterations = static_cast<double>(state.iterations());
    const double op_ms = iterations > 0 ? total_s_ * 1e3 / iterations : 0;
    state.counters["op_ms"] = op_ms;
    state.SetLabel(std::to_string(state.range(0)) + " bound rows");
    AppendBenchJsonLine(
        "sync", run + "/" + std::to_string(state.range(0)),
        {{"iterations", iterations},
         {"rows", static_cast<double>(state.range(0))},
         {"nproc", static_cast<double>(std::thread::hardware_concurrency())},
         {"op_ms", op_ms}});
  }

 private:
  std::chrono::steady_clock::time_point t0_;
  double total_s_ = 0;
};

void BM_Fig2c_FrontEndEditPropagation(benchmark::State& state) {
  SyncFixture fx(static_cast<size_t>(state.range(0)));
  int64_t amount = 1;
  OpTimer timer;
  for (auto _ : state) {
    timer.Start();
    ++amount;
    // Edit a bound cell (row 2 = table position 1, amount column).
    (void)fx.ds->SetCellAt(fx.sheet, 2, 2, std::to_string(amount));
    fx.ds->Pump();
    benchmark::DoNotOptimize(fx.ds->GetValueAt(fx.sheet, 0, 5));
    timer.Stop();
  }
  timer.Report(state, "FrontEndEdit");
}
BENCHMARK(BM_Fig2c_FrontEndEditPropagation)
    ->Arg(100)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Fig2c_BackEndUpdatePropagation(benchmark::State& state) {
  SyncFixture fx(static_cast<size_t>(state.range(0)));
  int64_t amount = 1;
  OpTimer timer;
  for (auto _ : state) {
    timer.Start();
    ++amount;
    (void)fx.ds->Sql("UPDATE t SET amount = " + std::to_string(amount) +
                     " WHERE id = 3");
    fx.ds->Pump();
    benchmark::DoNotOptimize(fx.ds->GetValueAt(fx.sheet, 4, 2));
    timer.Stop();
  }
  timer.Report(state, "BackEndUpdate");
}
BENCHMARK(BM_Fig2c_BackEndUpdatePropagation)
    ->Arg(100)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Fig2c_BackEndInsertBurst(benchmark::State& state) {
  // Ten appends per iteration coalescing into one binding refresh per pump.
  SyncFixture fx(static_cast<size_t>(state.range(0)));
  int64_t next_id = 10000000;
  OpTimer timer;
  for (auto _ : state) {
    timer.Start();
    for (int i = 0; i < 10; ++i) {
      (void)fx.ds->Sql("INSERT INTO t VALUES (" + std::to_string(next_id++) +
                       ", 'x', 1)");
    }
    fx.ds->Pump();
    benchmark::DoNotOptimize(fx.ds->GetValueAt(fx.sheet, 0, 5));
    timer.Stop();
  }
  timer.Report(state, "InsertBurst");
}
BENCHMARK(BM_Fig2c_BackEndInsertBurst)
    ->Arg(100)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dataspread::bench

// Workload query_mix: read-only analyst SQL over an in-memory movie
// database. sql and exec do nearly all the work; core, the WAL and formula
// do none of it.
#include <algorithm>
#include <memory>

#include "exec/planner.h"
#include "exec/row_batch.h"
#include "harness.h"
#include "sql/parser.h"

namespace perfbench {
namespace {

constexpr size_t kMovies = 30000;
constexpr size_t kActors = 15000;
constexpr size_t kLinks = 75000;
constexpr int64_t kFirstYear = 1950, kYears = 70;
// Year bounds are drawn from [1980, 1990): each query keeps 43-57% of the
// movies, so a query kind's cost varies little between its samples and
// its median is steady, while consecutive statement texts still differ.
constexpr int64_t kBoundFrom = 1980, kBoundYears = 10;
constexpr size_t kTopK = 8;
enum Kind { kJoin, kJoinTopk, kSortTopk, kAgg, kKeyLookup };
const char* const kKindName[] = {"join", "join_topk", "sort_topk", "agg",
                                 "key_lookup"};
// One deck: every query once, key lookups twice (they are the cheapest).
const std::vector<int> kDeck = {1, 1, 1, 1, 2};
constexpr double kDecksPerSecond = 2.3;

const char* const kJoinFrom =
    " FROM movies NATURAL JOIN movies2actors NATURAL JOIN actors";

/// The generated database and the answers the generator knows.
struct Movies {
  std::vector<std::string> title;  // by movieid
  std::vector<int64_t> year;       // by movieid
  // Titles of all links, sorted (title, year), for the join top-k oracle.
  std::vector<std::pair<std::string, int64_t>> link_titles;
  // Movie titles sorted, for the single-table top-k oracle.
  std::vector<std::pair<std::string, int64_t>> movie_titles;
  std::vector<int64_t> movies_per_year;  // index year - kFirstYear
  std::vector<int64_t> links_per_year;

  int64_t JoinCount(int64_t min_year) const {
    int64_t n = 0;
    for (int64_t y = min_year - kFirstYear; y < kYears; ++y) {
      n += links_per_year[static_cast<size_t>(y)];
    }
    return n;
  }
  static std::vector<Row> TopK(
      const std::vector<std::pair<std::string, int64_t>>& sorted,
      int64_t min_year) {
    std::vector<Row> rows;
    for (const auto& [t, y] : sorted) {
      if (y < min_year) continue;
      rows.push_back({Value::Text(t)});
      if (rows.size() == kTopK) break;
    }
    return rows;
  }
  std::vector<Row> PerYear(int64_t min_year) const {
    std::vector<Row> rows;
    for (int64_t y = min_year - kFirstYear; y < kYears; ++y) {
      int64_t n = movies_per_year[static_cast<size_t>(y)];
      if (n > 0) rows.push_back({Value::Int(kFirstYear + y), Value::Int(n)});
    }
    return rows;
  }
};

struct Query {
  int kind;
  std::string sql;
  std::vector<Row> expect;
  bool sort_result;  // GROUP BY output order is unspecified
};

// `years` spreads the year bound evenly over the run; `rng` picks keys.
Query MakeQuery(int kind, EvenSpread& years, Rng& rng, const Movies& m) {
  int64_t year = kBoundFrom + static_cast<int64_t>(years.Below(kBoundYears));
  std::string y = std::to_string(year);
  switch (kind) {
    case kJoin:
      return {kind, "SELECT COUNT(*)" + std::string(kJoinFrom) +
                        " WHERE year >= " + y,
              {{Value::Int(m.JoinCount(year))}}, false};
    case kJoinTopk:
      return {kind, "SELECT title" + std::string(kJoinFrom) +
                        " WHERE year >= " + y + " ORDER BY title LIMIT 8",
              Movies::TopK(m.link_titles, year), false};
    case kSortTopk:
      return {kind, "SELECT title FROM movies WHERE year >= " + y +
                        " ORDER BY title LIMIT 8",
              Movies::TopK(m.movie_titles, year), false};
    case kAgg:
      return {kind, "SELECT year, COUNT(*) FROM movies WHERE year >= " + y +
                        " GROUP BY year",
              m.PerYear(year), true};
    default: {
      int64_t id = static_cast<int64_t>(rng.Below(m.title.size()));
      return {kind,
              "SELECT title FROM movies WHERE movieid = " + std::to_string(id),
              {{Value::Text(m.title[static_cast<size_t>(id)])}}, false};
    }
  }
}

}  // namespace

RunResult RunQueryMix(const Options& opt) {
  RunResult out;
  const size_t movies = kMovies / static_cast<size_t>(opt.shrink);
  const size_t actors = kActors / static_cast<size_t>(opt.shrink);
  const size_t links = kLinks / static_cast<size_t>(opt.shrink);

  // ---- Inputs ----
  const int64_t heap_start = HeapInUseBytes();
  Movies m;
  m.movies_per_year.assign(kYears, 0);
  m.links_per_year.assign(kYears, 0);
  Rng rng = Rng::Stream(opt.seed, 1);
  std::string movies_csv = "movieid,title,year\n";
  for (size_t i = 0; i < movies; ++i) {
    // A random word plus the id keeps titles unique, so top-k is exact.
    m.title.push_back(Word(rng, 5) + " " + std::to_string(i));
    m.year.push_back(kFirstYear + static_cast<int64_t>(rng.Below(kYears)));
    m.movies_per_year[static_cast<size_t>(m.year.back() - kFirstYear)] += 1;
    m.movie_titles.push_back({m.title.back(), m.year.back()});
    movies_csv += std::to_string(i) + "," + m.title.back() + "," +
                  std::to_string(m.year.back()) + "\n";
  }
  std::string actors_csv = "actorid,name\n";
  for (size_t i = 0; i < actors; ++i) {
    actors_csv += std::to_string(i) + "," + Word(rng, 7) + "\n";
  }
  std::string links_csv = "movieid,actorid\n";
  for (size_t i = 0; i < links; ++i) {
    int64_t movie = static_cast<int64_t>(rng.Below(movies));
    int64_t actor = static_cast<int64_t>(rng.Below(actors));
    int64_t year = m.year[static_cast<size_t>(movie)];
    m.links_per_year[static_cast<size_t>(year - kFirstYear)] += 1;
    m.link_titles.push_back({m.title[static_cast<size_t>(movie)], year});
    links_csv += std::to_string(movie) + "," + std::to_string(actor) + "\n";
  }
  std::sort(m.link_titles.begin(), m.link_titles.end());
  std::sort(m.movie_titles.begin(), m.movie_titles.end());
  out.input_digest =
      Fnv(Fnv(Fnv(kFnvBasis, movies_csv), actors_csv), links_csv);
  // Kept for the set-ups during the run: 2 MB, counted as the benchmark's.
  const int64_t bench_bytes = HeapInUseBytes() - heap_start;

  // ---- Setup ----
  std::vector<double> setup_s;
  auto set_up = [&](std::unique_ptr<DataSpread>* into) {
    dataspread::DataSpreadOptions o;
    o.auto_pump = false;
    *into = std::make_unique<DataSpread>(o);
    DataSpread& d = **into;
    int64_t t0 = NowNs();
    bool ok = d.ImportCsvAsTable(movies_csv, "movies", "movieid").ok() &&
              d.ImportCsvAsTable(actors_csv, "actors", "actorid").ok() &&
              d.ImportCsvAsTable(links_csv, "movies2actors").ok();
    int64_t t1 = NowNs();
    if (!ok) {
      out.correct = false;
      out.Note("setup failed");
      return false;
    }
    setup_s.push_back((t1 - t0) / 1e9);
    return true;
  };
  // Set-up is timed once before the run, building the instance that serves
  // it, and then after every deck on a spare instance that is freed at once.
  // A set-up takes about 0.12 s, so only spread through the run does its
  // median sample the host over the whole run, as the ops do.
  std::unique_ptr<DataSpread> holder;
  if (!set_up(&holder)) return out;
  if (!ResetPeakRss()) out.Note("could not reset the peak RSS after set-up");
  // The run's peak RSS leaves out the spare set-ups: it is read before each
  // one and reset after it.
  int64_t peak_kb = 0;
  DataSpread& ds = *holder;

  // ---- Ops ----
  Rng op_rng = Rng::Stream(opt.seed, 2);
  std::vector<EvenSpread> years;  // one sequence per query kind
  for (int k = 0; k <= kKeyLookup; ++k) years.emplace_back(op_rng);
  Tracer tracer(opt.trace), off(false);
  const size_t decks = DeckCount(opt, kDecksPerSecond);
  tracer.Reserve(decks * 6 * 8);
  OpSamples samples;
  CounterBook book;
  std::map<std::string, std::vector<double>> ms_of;
  std::map<std::string, uint64_t> traced_seq;
  int op_id = 0;
  for (size_t d = 0; d < decks; ++d) {
    for (int kind : Deck(kDeck, op_rng)) {
      const std::string name = kKindName[kind];
      Query q = MakeQuery(kind, years[kind], op_rng, m);
      out.input_digest = Fnv(out.input_digest, q.sql);

      bool traced = opt.trace && (traced_seq[name]++ % 2 == 1);
      Tracer* tr = traced ? &tracer : &off;
      Counters before = opt.trace ? Counters::Start(ds) : Counters{};
      bool ok = true;
      std::vector<Row> got;
      int64_t t0 = NowNs();
      if (!traced) {
        auto rs = ds.Sql(q.sql);
        ok = rs.ok();
        if (ok) got = std::move(rs.value().rows);
      } else {
        // The same statement, driven through the public planner so each
        // stage is timed: parse, plan, Open + first batch, drain.
        Span op(tr, Layer::kBench, "op." + name, op_id);
        dataspread::Result<dataspread::sql::Statement> stmt =
            dataspread::Status::Internal("unparsed");
        {
          Span s(tr, Layer::kSql, "sql.parse_ms." + name);
          stmt = dataspread::sql::Parse(q.sql);
        }
        auto* select = stmt.ok()
                           ? std::get_if<dataspread::sql::SelectStmt>(&stmt.value())
                           : nullptr;
        ok = select != nullptr;
        dataspread::Result<dataspread::PlannedQuery> plan =
            dataspread::Status::Internal("unplanned");
        if (ok) {
          Span s(tr, Layer::kExec, "exec.plan_ms." + name);
          plan = dataspread::PlanSelect(select, ds.db().catalog(), nullptr,
                                        ds.db().exec_options());
          ok = plan.ok();
        }
        if (ok) {
          dataspread::Operator* root = plan.value().root.get();
          dataspread::RowBatch batch;
          std::vector<uint32_t> positions;
          bool more = false;
          auto take = [&]() {
            for (uint32_t i : batch.ActivePositions(&positions)) {
              Row r;
              for (size_t c = 0; c < batch.num_columns(); ++c) {
                r.push_back(batch.at(i, c));
              }
              got.push_back(std::move(r));
            }
          };
          {
            Span s(tr, Layer::kExec, "exec.first_batch_ms." + name);
            ok = root->Open().ok();
            auto next = ok ? root->Next(&batch) : dataspread::Result<bool>(false);
            ok = ok && next.ok();
            more = ok && next.value();
            if (more) take();
          }
          {
            Span s(tr, Layer::kExec, "exec.drain_ms." + name);
            while (ok && more) {
              auto next = root->Next(&batch);
              ok = next.ok();
              more = ok && next.value();
              if (more) take();
            }
          }
          // Freeing the plan releases join hash tables and sort buffers;
          // Database::Execute pays the same inside its call.
          Span s(tr, Layer::kExec, "exec.teardown_ms." + name);
          plan = dataspread::Status::Internal("released");
        }
      }
      int64_t t1 = NowNs();
      double ms = (t1 - t0) / 1e6;
      ms_of[name].push_back(ms);
      if (opt.trace) {
        book.Record(name, Counters::Read(ds).Minus(before));
        (traced ? samples.traced_ms : samples.untraced_ms)[name].push_back(ms);
        book.AddRowsOut(name, got.size());
        if (traced) {  // the planner path must agree with Database::Execute
          auto rs = ds.db().Execute(q.sql);
          std::vector<Row> a = got;
          std::vector<Row> b = rs.ok() ? rs.value().rows : std::vector<Row>{};
          if (q.sort_result) {
            std::sort(a.begin(), a.end());
            std::sort(b.begin(), b.end());
          }
          ok = ok && rs.ok() && a == b;
        }
      }

      if (q.sort_result) std::sort(got.begin(), got.end());
      ok = ok && got == q.expect;
      if (!out.Count(name, ok) && out.failed <= 5) out.Note("failed " + q.sql);
      ++op_id;
    }
    peak_kb = std::max(peak_kb, PeakRssKb());
    std::unique_ptr<DataSpread> spare;
    if (!set_up(&spare)) return out;
    spare.reset();
    ResetPeakRss();
  }
  peak_kb = std::max(peak_kb, PeakRssKb());

  if (!opt.trace) {
    ReportEndToEnd(ms_of, setup_s, peak_kb, bench_bytes, &out);
    return out;
  }

  // ---- Per-layer metrics ----
  // A set-up here is the three CSV imports alone; there is no sheet.
  ReportLayers(book, Median(setup_s), 0, &out);
  SummarizeTrace(tracer, samples, opt, &out);
  return out;
}

}  // namespace perfbench

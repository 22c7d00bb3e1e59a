// perfbench: the DataSpread end-to-end benchmark program.
//
//   perfbench --workload <pane_browse|sheet_edit|query_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--scratch <dir>] [--shrink <k>]
//             [--spans <csv>] [--commit <id>]
//
// Runs one workload and prints diagnostic lines ("# ...") followed by one
// JSON result line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
// per-layer metrics; every workload reports the same names. Figures of the
// workload's own op kinds, spans and queries print as "# detail" lines.
// perfbench/README.md documents the workloads, metrics and details.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pane_browse|sheet_edit|query_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--scratch <dir>] [--shrink <k>] "
               "[--spans <csv>] [--commit <id>]\n",
               msg);
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atoi(v.c_str());
      have_seconds = true;
    } else if (a == "--trace") {
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--scratch") {
      opt.scratch = v;
    } else if (a == "--shrink") {
      opt.shrink = std::max(1, std::atoi(v.c_str()));
    } else if (a == "--spans") {
      opt.spans_path = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.seconds < 1) {
    return Usage("--seed, --seconds (>= 1) and --trace (0|1) are required");
  }

  perfbench::RunResult r;
  if (opt.workload == "pane_browse") {
    r = perfbench::RunPaneBrowse(opt);
  } else if (opt.workload == "sheet_edit") {
    r = perfbench::RunSheetEdit(opt);
  } else if (opt.workload == "query_mix") {
    r = perfbench::RunQueryMix(opt);
  } else {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  if (r.attempted == 0) {  // setup failed before the first op
    r.attempted = 1;
    r.failed = 1;
    r.correct = false;
  }

  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  for (const auto& [name, vu] : r.details) {
    std::printf("# detail %s %.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const auto& [op, n] : r.failed_by_op) {
    std::printf("# failed %s: %llu\n", op.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::printf(
      "# env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"shrink\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"input_digest\": \"%016llx\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.shrink,
      std::thread::hardware_concurrency(), JsonEscape(PERFBENCH_COMPILER).c_str(),
      PERFBENCH_BUILD_TYPE, JsonEscape(commit).c_str(),
      static_cast<unsigned long long>(r.input_digest));

  std::string json = "{\"correct\": ";
  json += (r.correct && r.failed == 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    double value = std::isfinite(vu.first) ? vu.first : 0.0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

#!/usr/bin/env python3
"""DataSpread end-to-end benchmark: build, run, and summarise.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload <pane_browse|sheet_edit|query_mix> \
        --seed <n> --seconds <s> --trace <0|1>

builds the engine and the benchmark from source (CMake, Release) under
.bench_build/ (or $CARGO_TARGET_DIR), runs one workload in its own process,
and prints its diagnostic lines and, last, one JSON result line. With
--trace 1, --spans FILE also writes every recorded span there as CSV.

Steadiness mode runs every named workload N times, alternating workloads
and seeds, and prints each metric's median and quartiles:

    python3 perfbench/run.py --steady 10 [--workloads a,b] [--seconds s] \
        [--trace 0|1] [--first-seed n] [--details]

Self-tests run every workload at 1/50 size:

    python3 perfbench/run.py --selftest

Run from the repository root or anywhere else; paths are resolved from this
file. perfbench/README.md documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pane_browse", "sheet_edit", "query_mix"]
RUN_TIMEOUT_S = 170
# Units of measured quantities; every other metric is an exact count.
MEASURED_UNITS = {"ms", "s", "KB", "MB", "%"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "dataspread.h")):
        fail("engine sources not found at %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = os.path.join(build_base(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)
    return os.path.join(bdir, "perfbench")


def source_id():
    """The git commit when run in a clone, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src:" + h.hexdigest()[:16]


def run_one(binary, workload, seed, seconds, trace, shrink=1, commit="unknown",
            spans=None):
    """Runs one workload process; returns (exit code, stdout lines)."""
    scratch = os.path.join(build_base(), "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch, "--shrink", str(shrink), "--commit", commit]
    if spans:
        cmd += ["--spans", os.path.abspath(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(scratch, ignore_errors=True)
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, out.splitlines()


def result_of(lines):
    """The JSON result (last line) and the env record of one run."""
    env = {}
    for line in lines:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    return json.loads(lines[-1]), env


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def manifest():
    """BENCHMARK.json at the repository root, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def bounds():
    """End-to-end bounds from BENCHMARK.json, if any."""
    m = manifest()
    return {x["name"]: x["bound"] for x in m["end_to_end"]} if m else {}


def metric_mismatch(res, trace):
    """How the result's metrics differ from the manifest's list for the
    mode (end_to_end untraced, per_layer traced); "" if they agree or there
    is no manifest."""
    m = manifest()
    if m is None:
        return ""
    want = {x["name"]: x["unit"] for x in m["per_layer" if trace else "end_to_end"]}
    got = {n: v["unit"] for n, v in res["metrics"].items()}
    if want == got:
        return ""
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
    return "missing %s, extra %s, unit differs %s" % (missing, extra, units)


def steady(binary, args, commit):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    values = {w: {} for w in workloads}
    units = {}
    env = {}
    bad = 0
    for i in range(args.steady):
        seed = args.first_seed + i
        for w in workloads:
            code, lines = run_one(binary, w, seed, args.seconds, args.trace,
                                  commit=commit)
            if code != 0:
                fail("%s seed %d exited with %d" % (w, seed, code))
            res, env = result_of(lines)
            if not res["correct"] or res["failed"]:
                bad += 1
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            if args.details:
                for line in lines:
                    if line.startswith("# detail "):
                        name, value, unit = line.split()[2:5]
                        values[w].setdefault("detail:" + name, []).append(float(value))
                        units["detail:" + name] = unit
            print("run %d/%d %-11s seed=%d correct=%s attempted=%d failed=%d"
                  % (i + 1, args.steady, w, seed, res["correct"],
                     res["attempted"], res["failed"]), flush=True)
    print("# env nproc=%s compiler=%s build_type=%s commit=%s"
          % (env.get("nproc"), env.get("compiler"), env.get("build_type"),
             env.get("commit")))
    # A bounded metric's spread over all rounds must stay within its bound
    # ("steady" below a third of it). With four or more rounds, alternate
    # rounds also form two sets (A: odd, B: even) whose medians must agree
    # within the bound.
    bound_of = bounds() if args.trace == 0 else {}
    summary = {}
    worst = []
    for w in workloads:
        print("== %s (%d runs, seconds=%d, trace=%d)"
              % (w, args.steady, args.seconds, args.trace))
        for name in sorted(values[w]):
            vals = values[w][name]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            line = "  %-44s median=%-12.6g q1=%-12.6g q3=%-12.6g " \
                   "iqr/median=%.4f %s" % (name, med, q1, q3, spread, units[name])
            entry = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread,
                     "unit": units[name], "values": vals}
            bound = bound_of.get(name)
            if bound is not None:
                shift = 0.0
                if len(vals) >= 4:
                    meds = [quartiles(vals[0::2])[1], quartiles(vals[1::2])[1]]
                    shift = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
                    entry["set_medians"] = meds
                ok = abs(shift) <= bound and spread <= bound
                verdict = ("steady" if spread < bound / 3 else "ok") if ok else "OVER"
                line += "  A/B shift=%+.4f bound=%.2f %s" % (shift, bound, verdict)
                entry.update({"shift": shift, "bound": bound, "within": ok})
                if not ok:
                    worst.append("%s/%s" % (w, name))
            print(line)
            summary.setdefault(w, {})[name] = entry
    if worst:
        print("# outside bounds: " + ", ".join(worst))
    print(json.dumps({"env": env, "runs": args.steady, "failed_runs": bad,
                      "summary": summary}))
    return 0 if bad == 0 else 1


def selftest(binary, commit):
    """Small-size checks: every check passes, counts repeat exactly for one
    seed, and another seed changes the generated inputs."""
    ok = True

    def check(cond, what):
        nonlocal ok
        print("%s %s" % ("PASS" if cond else "FAIL", what), flush=True)
        ok = ok and cond

    for w in WORKLOADS:
        runs = {}
        for seed, trace, rep in ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
                                 (2, 0, 0)):
            code, lines = run_one(binary, w, seed, 20, trace, shrink=50,
                                  commit=commit)
            check(code == 0, "%s seed=%d trace=%d exits 0" % (w, seed, trace))
            if code != 0:
                return 1
            res, env = result_of(lines)
            runs[(seed, trace, rep)] = (res, env)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  "%s seed=%d trace=%d: all %d ops and checks pass"
                  % (w, seed, trace, res["attempted"]))
            mismatch = metric_mismatch(res, trace)
            check(not mismatch, "%s seed=%d trace=%d: metrics are BENCHMARK.json's%s"
                  % (w, seed, trace, " (%s)" % mismatch if mismatch else ""))
        for trace in (0, 1):
            a, b = runs[(1, trace, 0)][0], runs[(1, trace, 1)][0]
            counts = [n for n, m in a["metrics"].items()
                      if m["unit"] not in MEASURED_UNITS]
            same = [n for n in counts
                    if n in b["metrics"]
                    and a["metrics"][n]["value"] == b["metrics"][n]["value"]]
            check(same == counts and (trace == 0 or counts),
                  "%s trace=%d: %d count metrics repeat exactly for one seed%s"
                  % (w, trace, len(counts),
                     "" if same == counts else
                     " (differ: %s)" % sorted(set(counts) - set(same))))
            check(a["attempted"] == b["attempted"],
                  "%s trace=%d: op count repeats for one seed" % (w, trace))
        check(runs[(1, 0, 0)][1]["input_digest"] == runs[(1, 0, 1)][1]["input_digest"],
              "%s: one seed gives the same inputs" % w)
        check(runs[(1, 0, 0)][1]["input_digest"] != runs[(2, 0, 0)][1]["input_digest"],
              "%s: another seed changes the inputs" % w)
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N",
                   help="run each workload N times, alternating, and summarise")
    p.add_argument("--workloads", help="comma-separated subset for --steady")
    p.add_argument("--details", action="store_true",
                   help="with --steady, summarise the detail lines too")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--spans", metavar="CSV",
                   help="with --trace 1, write every span of the run here")
    args = p.parse_args()
    if not args.selftest and not args.steady and (
            args.workload is None or args.seed is None):
        p.error("--workload and --seed are required for a single run")

    binary = build()
    commit = source_id()
    if args.selftest:
        return selftest(binary, commit)
    if args.steady:
        return steady(binary, args, commit)
    code, lines = run_one(binary, args.workload, args.seed, args.seconds,
                          args.trace, commit=commit, spans=args.spans)
    if code != 0 or not lines:
        for line in lines:
            print(line, file=sys.stderr)
        fail("%s exited with %d" % (args.workload, code))
    # A result whose metrics are not the manifest's is a benchmark defect:
    # fail without printing a result line.
    mismatch = metric_mismatch(json.loads(lines[-1]), args.trace)
    if mismatch:
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        fail("metrics differ from BENCHMARK.json: " + mismatch)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

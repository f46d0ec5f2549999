#!/usr/bin/env python3
"""Diff two bench trajectory files (BENCH_<slug>.json).

The trajectory schema (cloudmap-bench-trajectory-v1, written by
bench/bench_common.h) records, per benchmark: iterations, ns/op, thread
count, and deterministic counters — nothing else, so two files from the
same code differ only in the timings under comparison.

The comparison is per-core: for a benchmark that ran with T threads, the
gated quantity is ns_per_op * T, which keeps multi-threaded variants from
masking a per-core regression behind added parallelism.

    python3 tools/bench_compare.py BASELINE CURRENT [--threshold 0.15]

Exit status: 0 when every matched benchmark is within the regression
threshold, 1 when any regressed beyond it, 2 on usage or schema errors.
Counter drift (deterministic work counts that changed between the two
runs) is reported but never fails the comparison — it flags a behaviour
change for a human to judge, not a perf regression. The same holds for
the host CPU count (`host_cpus`): both files' values are printed, and a
mismatch or a missing value is flagged, because timings from hosts of
different sizes do not compare like for like — but it never changes the
exit status.
"""

import argparse
import json
import sys


def load_trajectory(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as error:
        raise SystemExit("bench_compare: cannot read %s: %s" % (path, error))
    if data.get("schema") != "cloudmap-bench-trajectory-v1":
        raise SystemExit(
            "bench_compare: %s is not a cloudmap bench trajectory "
            "(schema=%r)" % (path, data.get("schema")))
    return data


def per_core_ns(entry):
    return entry.get("ns_per_op", 0.0) * max(1, entry.get("threads", 1))


def by_name(trajectory):
    return {entry["name"]: entry
            for entry in trajectory.get("benchmarks", [])}


def format_ns(value):
    if value >= 1e9:
        return "%.3f s" % (value / 1e9)
    if value >= 1e6:
        return "%.2f ms" % (value / 1e6)
    if value >= 1e3:
        return "%.2f us" % (value / 1e3)
    return "%.2f ns" % value


def compare_counters(label, base, current, lines):
    for key in sorted(set(base) | set(current)):
        if key not in base:
            lines.append("  counter drift %s %s: new (%.10g)" %
                         (label, key, current[key]))
        elif key not in current:
            lines.append("  counter drift %s %s: gone (was %.10g)" %
                         (label, key, base[key]))
        elif base[key] != current[key]:
            lines.append("  counter drift %s %s: %.10g -> %.10g" %
                         (label, key, base[key], current[key]))


def report_host_cpus(base, current):
    """Prints both host CPU counts; a difference is informational only."""
    print("host_cpus: baseline %s, current %s" %
          ("missing" if base is None else base,
           "missing" if current is None else current))
    if base is None or current is None:
        print("  host_cpus missing (informational, not gated): the host "
              "behind that file is unknown")
    elif base != current:
        print("  host_cpus mismatch (informational, not gated): timings "
              "come from hosts with different CPU counts")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare two bench trajectory files per-core")
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("current", help="current BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="fail when per-core ns/op grows by more than "
                             "this fraction (default 0.15)")
    args = parser.parse_args(argv)

    base = load_trajectory(args.baseline)
    current = load_trajectory(args.current)
    base_benches = by_name(base)
    current_benches = by_name(current)

    regressions = []
    drift = []
    print("bench_compare: %s vs %s (threshold %.0f%%)" %
          (args.baseline, args.current, args.threshold * 100))
    report_host_cpus(base.get("host_cpus"), current.get("host_cpus"))
    print("%-44s %14s %14s %9s" %
          ("benchmark (per-core)", "baseline", "current", "delta"))
    for name in sorted(set(base_benches) | set(current_benches)):
        if name not in current_benches:
            print("%-44s %14s %14s %9s" %
                  (name, format_ns(per_core_ns(base_benches[name])),
                   "missing", "-"))
            continue
        if name not in base_benches:
            print("%-44s %14s %14s %9s" %
                  (name, "new", format_ns(per_core_ns(current_benches[name])),
                   "-"))
            continue
        base_ns = per_core_ns(base_benches[name])
        current_ns = per_core_ns(current_benches[name])
        if base_ns <= 0.0:
            print("%-44s %14s %14s %9s" %
                  (name, "0", format_ns(current_ns), "-"))
            continue
        delta = (current_ns - base_ns) / base_ns
        verdict = ""
        if delta > args.threshold:
            verdict = "  REGRESSION"
            regressions.append((name, delta))
        print("%-44s %14s %14s %+8.1f%%%s" %
              (name, format_ns(base_ns), format_ns(current_ns),
               delta * 100, verdict))
        compare_counters(name,
                         base_benches[name].get("counters", {}),
                         current_benches[name].get("counters", {}), drift)

    compare_counters("(run)", base.get("counters", {}),
                     current.get("counters", {}), drift)
    if drift:
        print("deterministic counter drift (informational, not gated):")
        for line in drift:
            print(line)

    if regressions:
        print("bench_compare: FAIL — %d benchmark(s) regressed >%.0f%% "
              "per-core:" % (len(regressions), args.threshold * 100))
        for name, delta in regressions:
            print("  %s: +%.1f%%" % (name, delta * 100))
        return 1
    print("bench_compare: OK — no per-core regression beyond %.0f%%" %
          (args.threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""cloudmap end-to-end benchmark: build, run one workload, print its result.

    python3 perfbench/run.py --workload map_hazard --seed 1 --seconds 35 \
        --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds the cloudmap library and
the benchmark binary (Release) into .bench_build/perfbench; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Each result, with its host record
(nproc, threads, connections, compiler, build type, seeds), is also kept
under .bench_build/perfbench/results/, and a traced run's spans under
.bench_build/perfbench/traces/. See perfbench/README.md.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cloudmap_perfbench")
WORKLOADS = ["map_hazard", "serve_analytics"]
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; False when the sources are missing."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("cloudmap sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def run_binary(workload, seed, seconds, trace, query_seed=None, smoke=False,
               plant_mismatch=False):
    """Runs one workload; returns (exit code, stdout lines, trace path)."""
    tag = "%s-seed%s-trace%d%s" % (workload, seed, trace,
                                   "-smoke" if smoke else "")
    work_dir = os.path.join(BUILD, "work-%d" % os.getpid())
    trace_path = os.path.join(BUILD, "traces", tag + ".json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work_dir]
    if trace:
        command += ["--trace-out", trace_path]
    if query_seed is not None:
        command += ["--query-seed", str(query_seed)]
    if smoke:
        command.append("--smoke")
    if plant_mismatch:
        command.append("--plant-mismatch")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (tag, RUN_TIMEOUT_S))
        return 3, [], trace_path
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode == 0 and lines and not plant_mismatch:
        results = os.path.join(BUILD, "results")
        os.makedirs(results, exist_ok=True)
        with open(os.path.join(results, tag + ".json"), "w") as out:
            out.write("\n".join(lines[-2:]) + "\n")
    return done.returncode, lines, trace_path


def last_json(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


# --- self-test -------------------------------------------------------------

def check_result(result, expected, problems, where):
    """Every metric BENCHMARK.json names is printed, with its unit."""
    if result is None:
        problems.append(where + ": no JSON result on the last line")
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(where + ": result keys %s" % sorted(result))
        return
    if result["attempted"] < 1:
        problems.append(where + ": attempted < 1")
    names = [m["name"] for m in expected]
    if sorted(result["metrics"]) != sorted(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        problems.append("%s: missing %s, unexpected %s"
                        % (where, sorted(missing), sorted(extra)))
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            problems.append("%s: %s unit %r, want %r" % (
                where, metric["name"], got.get("unit"), metric["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s value %r" % (where, metric["name"], value))


def check_trace(path, problems, where):
    """The traced run wrote well-formed span JSON."""
    try:
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
    except (OSError, ValueError, KeyError) as error:
        problems.append("%s: trace %s unreadable: %s" % (where, path, error))
        return
    if not events:
        problems.append(where + ": trace has no spans")
        return
    ids = set()
    for event in events:
        args = event.get("args", {})
        if not (isinstance(event.get("name"), str)
                and isinstance(event.get("ts"), (int, float))
                and isinstance(event.get("dur"), (int, float))
                and event["dur"] >= 0
                and all(isinstance(args.get(k), int)
                        for k in ("id", "parent", "request"))):
            problems.append("%s: malformed span %r" % (where, event))
            return
        ids.add(args["id"])
    orphans = [e for e in events
               if e["args"]["parent"] and e["args"]["parent"] not in ids]
    if orphans:
        problems.append("%s: %d spans name a missing parent"
                        % (where, len(orphans)))
    if not any(e["name"] == "bench.map" for e in events):
        problems.append(where + ": no bench.map span")


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from " +
                        ", ".join(WORKLOADS))
    for workload in WORKLOADS:
        for trace in (0, 1):
            where = "%s trace %d" % (workload, trace)
            before = len(problems)
            code, lines, trace_path = run_binary(workload, 1, 1, trace,
                                                 smoke=True)
            if code != 0:
                problems.append("%s: exit code %d" % (where, code))
                continue
            result = last_json(lines)
            check_result(result, spec["per_layer" if trace else "end_to_end"],
                         problems, where)
            if result and (not result.get("correct") or result.get("failed")):
                problems.append(where + ": outputs reported wrong")
            if trace:
                check_trace(trace_path, problems, where)
            log("smoke %s: %s" % (where,
                                  "ok" if len(problems) == before else "FAIL"))
    for workload in WORKLOADS:
        code, lines, _ = run_binary(workload, 1, 1, 0, smoke=True,
                                    plant_mismatch=True)
        result = last_json(lines)
        caught = (code == 0 and result is not None
                  and result["correct"] is False and result["failed"] >= 1
                  and result["metrics"]["ok_ratio"]["value"] < 1)
        if not caught:
            problems.append(workload +
                            ": planted wrong expected reply went unnoticed")
        log("planted mismatch on %s: %s" % (
            workload, "caught" if caught else "MISSED"))
    for problem in problems:
        log("FAIL " + problem)
    log("self-test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="world seed (serve_analytics also maps seed+1)")
    parser.add_argument("--query-seed", type=int, default=None,
                        help="query-stream seed (default: --seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="smoke-run all workloads and check the checks")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        return selftest()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            seconds = json.load(handle)["run_seconds"]
    code, lines, _ = run_binary(args.workload, args.seed, seconds,
                                args.trace, args.query_seed)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test for the CLI tools' malformed-input exit contract.

DESIGN.md section 14: tools that parse untrusted bytes exit 0 on success,
1 on semantic failures over well-formed inputs, and 2 — with a stderr
diagnostic naming the offending byte offset — when the bytes themselves
are malformed.  A traceback (Python's default exit 1 plus stack spew) is
a contract violation either way.

Runs diff_snapshots.py and validate_metrics.py over valid corpus files,
truncated prefixes, and garbage, asserting the exit status and that
stderr carries a FAIL diagnostic rather than a traceback. Also pins
bench_compare.py's gate: a host CPU count that differs or is missing is
reported but never changes the exit status.
"""
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIFF = os.path.join(REPO, "tools", "diff_snapshots.py")
VALIDATE = os.path.join(REPO, "tools", "validate_metrics.py")
COMPARE = os.path.join(REPO, "tools", "bench_compare.py")
CORPUS = os.path.join(REPO, "fuzz", "corpus")

failures = []


def run(argv):
    return subprocess.run([sys.executable] + argv, capture_output=True,
                          text=True)


def expect(name, argv, status, stderr_has=None, stdout_has=None):
    result = run(argv)
    if result.returncode != status:
        failures.append("%s: exit %d, expected %d\nstderr: %s"
                        % (name, result.returncode, status, result.stderr))
        return
    if "Traceback" in result.stderr:
        failures.append("%s: traceback on stderr:\n%s"
                        % (name, result.stderr))
        return
    if stderr_has and stderr_has not in result.stderr:
        failures.append("%s: stderr %r does not mention %r"
                        % (name, result.stderr, stderr_has))
        return
    if stdout_has and stdout_has not in result.stdout:
        failures.append("%s: stdout %r does not mention %r"
                        % (name, result.stdout, stdout_has))
        return
    print("ok: %s" % name)


def write_trajectory(path, ns_per_op, host_cpus):
    doc = {"schema": "cloudmap-bench-trajectory-v1", "bench": "t",
           "threads": 1, "counters": {},
           "benchmarks": [{"name": "BM_T", "iterations": 10,
                           "ns_per_op": ns_per_op, "threads": 1}]}
    if host_cpus is not None:
        doc["host_cpus"] = host_cpus
    with open(path, "w") as handle:
        json.dump(doc, handle)


def main():
    snap = os.path.join(CORPUS, "snapshot", "v2.snap")
    part = os.path.join(CORPUS, "shard", "single.part")
    with tempfile.TemporaryDirectory() as tmp:
        trunc_snap = os.path.join(tmp, "trunc.snap")
        with open(snap, "rb") as src, open(trunc_snap, "wb") as dst:
            dst.write(src.read()[:40])
        garbage = os.path.join(tmp, "garbage.part")
        with open(garbage, "wb") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 16)
        trunc_json = os.path.join(tmp, "trunc.json")
        with open(trunc_json, "w") as handle:
            handle.write('{"tool": "cloudmap", "stages": {')
        good_json = os.path.join(tmp, "good.json")
        schema_path = os.path.join(REPO, "tools", "metrics_schema.json")
        with open(schema_path) as handle:
            schema = json.load(handle)
        doc = {key: 0 for key in schema["required_top"]}
        doc.update(tool="cloudmap", schema_version=schema["schema_version"],
                   stages={}, counters={}, gauges={}, timers={})
        with open(good_json, "w") as handle:
            json.dump(doc, handle)

        expect("diff: valid pair exits 0",
               [DIFF, snap, snap, "--expect-identical"], 0)
        expect("diff: truncated snapshot exits 2 naming the offset",
               [DIFF, trunc_snap, snap], 2, stderr_has="offset")
        expect("diff: missing file exits 2",
               [DIFF, os.path.join(tmp, "no-such.snap"), snap], 2,
               stderr_has="FAIL")
        expect("diff: valid shard part exits 0",
               [DIFF, "--shard-parts", part], 0)
        expect("diff: garbage shard part exits 2 with a diagnostic",
               [DIFF, "--shard-parts", garbage], 2, stderr_has="FAIL")
        expect("diff: forged record count exits 2",
               [DIFF, "--shard-parts",
                os.path.join(CORPUS, "shard",
                             "regress-forged-record-count.part")], 2,
               stderr_has="records")
        expect("validate: well-formed artifact exits 0",
               [VALIDATE, "--partial", good_json], 0)
        expect("validate: truncated JSON exits 2 naming the offset",
               [VALIDATE, trunc_json], 2, stderr_has="offset")
        expect("validate: missing file exits 2",
               [VALIDATE, os.path.join(tmp, "no-such.json")], 2,
               stderr_has="FAIL")

        on_one = os.path.join(tmp, "BENCH_one.json")
        on_four = os.path.join(tmp, "BENCH_four.json")
        unknown = os.path.join(tmp, "BENCH_unknown.json")
        slower = os.path.join(tmp, "BENCH_slower.json")
        write_trajectory(on_one, 100.0, 1)
        write_trajectory(on_four, 100.0, 4)
        write_trajectory(unknown, 100.0, None)
        write_trajectory(slower, 200.0, 4)
        expect("compare: host_cpus mismatch is reported, exits 0",
               [COMPARE, on_one, on_four], 0, stdout_has="host_cpus mismatch")
        expect("compare: missing host_cpus is reported, exits 0",
               [COMPARE, unknown, on_four], 0, stdout_has="host_cpus missing")
        expect("compare: a regression still exits 1 across hosts",
               [COMPARE, on_one, slower], 1, stdout_has="REGRESSION")

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        sys.exit(1)
    print("ok: tool exit-code contract holds")


if __name__ == "__main__":
    main()

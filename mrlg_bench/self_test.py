#!/usr/bin/env python3
"""Self-test of mrlg-bench at a tiny scale (about a minute after the build).

Run from the repository root:

    python3 mrlg_bench/self_test.py

It checks that
  * every workload in BENCHMARK.json runs, timed and traced, passes its
    checks, and prints every declared metric with its declared unit, both
    as a `metric` line and in the final JSON line;
  * a forced failure (a placement corrupted before the legality check) is
    counted in `failed` and in the `failed_runs` line, and the run exits
    non-zero instead of dropping the bad run;
  * a run with MRLG_VALIDATE set is refused without a result.
Exits 0 when all checks pass.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.02"


def run(workload, trace, *extra, env=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", SCALE, *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p.returncode, lines, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
            print("FAIL", what)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for w in spec["workloads"]:
            name = w["name"]
            rc, lines, result = run(name, trace)
            tag = "%s trace=%d" % (name, trace)
            expect(rc == 0, "%s: exit code %d" % (tag, rc))
            if result is None:
                expect(False, "%s: no JSON result line" % tag)
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   "%s: result keys %s" % (tag, sorted(result)))
            expect(result["correct"] is True and result["failed"] == 0,
                   "%s: correct=%s failed=%s" % (tag, result["correct"], result["failed"]))
            expect(result["attempted"] >= 1, "%s: attempted=%s" % (tag, result["attempted"]))
            printed = {}
            for line in lines:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            metrics = result["metrics"]
            expect(set(metrics) == set(declared),
                   "%s: metrics differ from BENCHMARK.json: %s" %
                   (tag, sorted(set(metrics) ^ set(declared))))
            for m, unit in declared.items():
                got = metrics.get(m, {})
                expect(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
                       "%s: %s is %s, want unit %s" % (tag, m, got, unit))
                expect(printed.get(m) == unit, "%s: no `metric %s ... %s` line" % (tag, m, unit))
            if trace == 0:
                expect(printed.get("failed_runs") == "share", "%s: no failed_runs line" % tag)
            print("ok  ", tag)

    name = spec["workloads"][0]["name"]
    rc, lines, result = run(name, 0, "--inject-failure")
    expect(rc != 0, "forced failure: exit code 0")
    expect(result is not None and result["failed"] >= 1 and result["correct"] is False,
           "forced failure: not counted (%s)" % result)
    expect(result is not None and result["attempted"] > result["failed"],
           "forced failure: the other runs were not attempted (%s)" % result)
    expect(any(l.startswith("metric failed_runs ") and not l.startswith("metric failed_runs 0 ")
               for l in lines), "forced failure: failed_runs line reads 0")
    print("ok  ", "forced failure counted:", result and (result["attempted"], result["failed"]))

    env = dict(os.environ, MRLG_VALIDATE="cheap")
    rc, lines, result = run(name, 0, env=env)
    expect(rc == 3 and result is None, "MRLG_VALIDATE=cheap: rc=%d, result=%s" % (rc, result))
    print("ok  ", "MRLG_VALIDATE run refused")

    print("self-test:", "PASS" if not problems else "FAIL (%d problems)" % len(problems))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of allocsim's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks that each
end-to-end and per-layer metric named in BENCHMARK.json is emitted with its
unit, that the pinned digests match, and that fail_frac is printed. Then
runs one workload against a deliberately wrong digest and checks that the
mismatch is counted as a failure and the run exits nonzero. Takes about a
minute and a half on 4 cores.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seconds", "1",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{cmd}: no output\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def fail_frac(stdout):
    match = re.search(r"^\s+fail_frac\s+(\S+)\s+ratio", stdout, re.M)
    if not match:
        raise AssertionError("fail_frac line missing")
    return float(match.group(1))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, stdout = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, result {result}")
            if fail_frac(stdout) != 0:
                problems.append(f"{where}: fail_frac is not 0")
            if ", pinned " not in stdout:
                problems.append(f"{where}: digest was not checked")
            metrics = result["metrics"]
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append(f"{where}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{where}: unexpected metrics {sorted(extra)}")
            print(f"ok   {where}: {len(metrics)} metrics")

    code, result, stdout = run("churn-check", 0,
                               "--expect-digest", "0123456789abcdef")
    if code == 0 or result["correct"] or result["failed"] < 1:
        problems.append(f"wrong digest not failed: exit {code}, {result}")
    elif fail_frac(stdout) <= 0:
        problems.append("wrong digest not counted in fail_frac")
    else:
        print(f"ok   wrong digest: exit {code}, fail_frac "
              f"{fail_frac(stdout):g}")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

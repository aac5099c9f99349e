#!/usr/bin/env python3
"""Build and run allocsim's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (which compiles allocsim from ../src with
the tier-1 flags) into $CARGO_TARGET_DIR, default .bench_build, then runs
one workload. The last line of standard output is the JSON result. At the
pinned seed (digests.json) the run's result digest must match the pinned
one. Exits nonzero, without a result line, when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "churn-check", "trace-replay")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "allocsim_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "allocsim_perfbench")


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f)
    if seed != pinned["seed"]:
        return ""
    return pinned["digests"][workload]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1592932958)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-digest", default=None,
                        help="override the pinned digest (self-test only)")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(os.getcwd(), build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    digest = args.expect_digest
    if digest is None:
        digest = pinned_digest(args.workload, args.seed)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect-digest=" + digest]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the semint benchmark from the root of a checkout.

    python3 perfbench/run.py --workload deep-sweep --seed 1 --seconds 15 --trace 0

Builds the `semint` binary and the `perfbench` package in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and prints the
benchmark's report.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones.  See
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["deep-sweep", "checked-boundary", "broken-sharded"]
# Everything a run does must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
WORK_DIR = ".perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "semint-harness", "--bin", "semint"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--jobs", type=int,
                        help="worker threads or shards (default: available cores)")
    args = parser.parse_args()

    for needed in ("Cargo.toml", "crates/harness/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(needed):
            fail(f"run from the root of a semint checkout ({needed} is missing)")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(target_dir)
    os.makedirs(WORK_DIR, exist_ok=True)

    cmd = [
        os.path.join(target_dir, "release", "semint-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--semint", os.path.join(target_dir, "release", "semint"),
        "--work", WORK_DIR,
    ]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

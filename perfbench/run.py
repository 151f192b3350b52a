#!/usr/bin/env python3
"""Builds and runs the AIM benchmark; see perfbench/README.md.

Usage, from the repository root:

    python3 perfbench/run.py --workload <tpch_tune|tpch_advise|prod_d_writes> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is compiled from the repository's sources into
$CARGO_TARGET_DIR (default: .bench_build). The last line of standard output
is the result as one JSON object; the exit code is non-zero when the build,
the run or a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the benchmark's own work is bounded well
# below this, so hitting it means something hangs.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tpch_tune", "tpch_advise", "prod_d_writes"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")

    if not os.path.isfile(os.path.join(ROOT, "crates", "aim-core", "Cargo.toml")):
        print("perfbench: the repository's crates are not next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--data-dir", os.path.join(target, "perfbench-data")]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(
            target, "perfbench-spans", f"{args.workload}-{args.seed}.tsv")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

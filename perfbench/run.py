#!/usr/bin/env python3
"""Build the benchmark from source and run one workload (or all of them).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The Rust program is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build). Each workload runs in a process of its own, so its
set-up time and peak memory belong to it alone. The last line of standard
output is the run's JSON result; with --workload all each workload prints
its own report and result in turn.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-sweep", "cluster-halo", "arbiterd-shards", "sched-envelope"]


def option(argv, flag, default=None):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def build(target_dir):
    cmd = [
        "cargo", "build", "--offline", "--release", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's own output goes to stderr: stdout carries only the results.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main(argv):
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    workload = option(argv, "--workload")
    names = WORKLOADS if workload == "all" else [workload]
    seed = option(argv, "--seed", "1")
    status = 0
    for name in names:
        args = list(argv)
        if workload == "all":
            args[args.index("--workload") + 1] = name
        if option(argv, "--trace") == "1" and "--trace-out" not in args:
            out = os.path.join(target_dir, "perfbench-trace", f"{name}-seed{seed}.jsonl")
            args += ["--trace-out", out]
        sys.stdout.flush()
        status = status or subprocess.run([binary] + args).returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

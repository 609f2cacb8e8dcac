#!/usr/bin/env python3
"""Builds the mission benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mission_detect --seed 1 --seconds 10 --trace 0

The benchmark is the Rust package in this directory (its own workspace,
with path dependencies on the repository's crates). It is built in release
mode into ``$CARGO_TARGET_DIR`` (default ``.bench_build``). The last line
of standard output is the JSON result. A traced run (``--trace 1``) also
writes its spans as Chrome trace-event JSON to
``<target dir>/perfbench/trace-<workload>-<seed>.json``.
"""

import argparse
import os
import subprocess
import sys


def host_fact(cmd, cwd, env=None):
    """First line of a command's output, or "unknown" if it fails."""
    try:
        out = subprocess.run(
            cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Host context. Git must not look above the checkout for a repository.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    commit = host_fact(["git", "rev-parse", "HEAD"], root, git_env)
    rustc = host_fact(["rustc", "--version"], root)
    nproc = len(os.sched_getaffinity(0))

    command = [
        os.path.join(target, "release", "eecs-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--nproc", str(nproc),
        "--rustc", rustc,
        "--commit", commit,
    ]
    if args.trace == "1":
        out_dir = os.path.join(target, "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = f"trace-{args.workload}-{args.seed}.json"
        command += ["--trace-out", os.path.join(out_dir, trace_file)]
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/) and the `threesigma` binary in
release mode into $CARGO_TARGET_DIR (default .bench_build), then runs one
workload. The last line of standard output is the result object; the line
before it holds every metric with its sample count, the workload's own
metrics, the correctness checks and a provenance stamp. Data directories
and span files go to .bench_work/. Exits non-zero without a result when
the build fails, and non-zero after the result when a check fails.

    python3 perfbench/run.py --test

runs the benchmark's own tests, including the serve workload at a tiny size.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(env):
    """Builds both binaries; returns the target directory or None."""
    for manifest, extra in (
        (os.path.join(ROOT, "perfbench", "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "threesigma-cli"]),
    ):
        if not os.path.isfile(manifest):
            print(f"run.py: {manifest} is missing", file=sys.stderr)
            return None
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return env["CARGO_TARGET_DIR"]


def output_of(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def stamp():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "commit": output_of(["git", "rev-parse", "HEAD"]),
        "rustc": output_of(["rustc", "-V"]),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true")
    args = p.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    if build(env) is None:
        return 2
    server = os.path.join(target, "release", "threesigma")

    if args.test:
        env["PERFBENCH_SERVER"] = server
        cmd = ["cargo", "test", "--release", "--offline",
               "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
        return subprocess.run(cmd, env=env).returncode
    if not args.workload:
        p.error("--workload is required")

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", server, "--work", os.path.join(ROOT, ".bench_work"),
           "--stamp", json.dumps(stamp())]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

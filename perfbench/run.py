#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload kv_tpcc_fit --seed 1 --seconds 20 --trace 0

Every argument is passed to the `perfbench` binary (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR, or to .bench_build/ at the repository
root when that is unset. The binary's output is passed through; its last
line is the JSON result. Exits non-zero, without a result, if the
repository's crates are missing, the build fails, or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CRATES = ["blockdev", "classic", "core", "crashsim", "fssim", "kvdb", "nvmsim", "workloads", "bench"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    missing = [c for c in CRATES if not os.path.isfile(os.path.join(ROOT, "crates", c, "Cargo.toml"))]
    if missing:
        fail(f"repository crates not found: {', '.join(missing)}")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if "--trace-out" not in args:
        args += ["--trace-out", os.path.join(HERE, "out")]
    try:
        run = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"run failed with code {run.returncode}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

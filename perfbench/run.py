#!/usr/bin/env python3
"""Build the perfbench load generator from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload caida_trace --seed 1 --seconds 20 --trace 0

The generator is a Cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the repository's crates. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository
root), then run with the arguments given here. Its standard output,
whose last line is the JSON result, passes through unchanged; build
output goes to standard error. The exit code is the generator's, or
non-zero if the build fails or the run overstays its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop a stuck one short of that.
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the coded-uplink benchmark.

Usage, from the repository root:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `benchmark/` (a Cargo package of its own, depending on the
repository's crates by path) in release mode, then runs it with the same
arguments. The build goes to `$CARGO_TARGET_DIR`, or `.bench_build` in the
current directory when that is unset. Build output goes to standard
error; the benchmark's own output, whose last line is the JSON result, goes
to standard output. Exits non-zero, without a result line, if the build or
any correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "flexcore-uplink-bench"


def main() -> int:
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
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
        print("benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target_dir, "release", BINARY)
    bench = subprocess.run([binary] + sys.argv[1:], env=env)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the evoforecast benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 evobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (evobench/Cargo.toml) with path
dependencies on the repository's crates, so a checkout holding only the
benchmark fails to build and this script exits non-zero without a result.
Build output goes to $CARGO_TARGET_DIR (default: target/evobench-build);
run artifacts go under target/evobench/. The last line of standard output is
the run's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join("target", "evobench-build"))
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
        print("evobench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "evobench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"evobench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the mapper benchmark from the root of a repository checkout.

    python3 perfbench/run.py --workload exact-proven --seed 1 --seconds 30 --trace 0

Builds perfbench/bench.exe from source with dune (build directory:
$CARGO_TARGET_DIR when set, else _build), runs it with the given
arguments and passes its output through.  Build output goes to stderr,
so the last line on stdout is the benchmark's JSON result.  See
perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the root of a repository checkout", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or "_build")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir, "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Entry point of the repo benchmark.

Builds the perfbench binary from source (perfbench/CMakeLists.txt compiles the
WIDEN libraries from ../src), then replaces itself with one run of it:

  python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 12 --trace 0

Build output goes to stderr; the binary's last stdout line is the JSON result.
The build tree lives under $CARGO_TARGET_DIR (default .bench_build) in the
directory the command runs from.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    os.execv(binary, [binary, "--out_dir", out_dir] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())

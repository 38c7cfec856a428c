#!/usr/bin/env python3
"""Build the EDEA serving benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload routed-mixed --seed 1 --seconds 40 --trace 0

The first run configures and builds the library and the benchmark into
.bench_build/ (CMake, Ninja when available); later runs rebuild only what
changed. Build output goes to stderr, so the benchmark's last stdout line
is its JSON result. With --trace 1 the spans are written to
.bench_build/trace-<workload>-<seed>.json. Exits nonzero, printing no
result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "edea_perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "build.ninja")) and not os.path.exists(
        os.path.join(BUILD, "Makefile")
    ):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "edea_perfbench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
    )


def flag(args, name):
    """The value following `name` in args, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if flag(args, "--trace") == "1" and flag(args, "--trace-file") is None:
        name = f"trace-{flag(args, '--workload')}-{flag(args, '--seed')}.json"
        args += ["--trace-file", os.path.join(BUILD, name)]
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the service benchmark from source and runs one measurement.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan-warm --seed 1 --seconds 20 --trace 0

The first call configures and compiles the library and the driver into
.bench_build/ (a few minutes); later calls rebuild only what changed.
Build output goes to stderr.  The driver's last stdout line is the result
object; traced runs also leave their summary and spans in .bench_out/.
Exits non-zero without a result when the sources are missing or the build
or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    """Configures (once) and compiles the driver; returns its path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, *sys.argv[1:],
           "--expected", os.path.join(HERE, "expected"), "--out", OUT]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the bnloc benchmark.

Usage, from the root of a source checkout:

    python3 bnbench/run.py --workload grid48|grid96|serve_mixed \
        --seed N --seconds T --trace 0|1

Configures and builds bnbench/ (which compiles the library from src/) into
.bench_build/bnbench on first use, then runs the benchmark binary with the
same arguments. Build output goes to stderr; the binary's standard output,
whose last line is the JSON result, passes through unchanged. Exits non-zero
without a result when the library sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bnbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("bnbench: no library sources at %s/src\n" % ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("bnbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "bnbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

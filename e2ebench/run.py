#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload exp2_dom_cast --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench),
configured once in Release and brought up to date on every run. Build output
goes to stderr; the benchmark's own output, ending in one JSON line, goes to
stdout. Exits non-zero when the build fails or the benchmark reports a wrong
verdict.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cmd, **kwargs):
    """Runs cmd to completion; a signal to this script stops the child too."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "e2ebench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if run(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("e2ebench: build failed", file=sys.stderr)
            return 1
    binary = os.path.join(build_dir, "e2ebench")
    return run([binary] + sys.argv[1:] + ["--work-dir", build_dir])


if __name__ == "__main__":
    sys.exit(main())

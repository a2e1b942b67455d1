#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tps_fattree --seed 1 --seconds 20 --trace 0

Every argument is handed to perfbench/bench.exe (see README.md). The
build's own output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Outputs land in perfbench/out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: cannot build: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    out = os.path.join(HERE, "out")
    sys.stdout.flush()
    # Replace this process, so the measured run is a single process.
    os.chdir(ROOT)
    os.execv(exe, [exe, *sys.argv[1:], "--out", out])


if __name__ == "__main__":
    sys.exit(main())

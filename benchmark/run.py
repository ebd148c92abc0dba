#!/usr/bin/env python3
"""Build amsc_bench from this checkout and run one benchmark workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the simulator library plus
benchmark/amsc_bench.cc into .bench_build/ (CMake, RelWithDebInfo);
later calls only re-run the incremental build. The workload then runs
for about S seconds. The last line of stdout is the result JSON:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1
(the span file is written to .bench_build/trace/). Build output goes
to stderr. Exits non-zero, without a result, when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BENCH = os.path.join(BUILD, "amsc_bench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(BENCH):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "amsc_bench"],
        check=True, stdout=sys.stderr, timeout=800)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.SubprocessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BENCH, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           "--scratch=" + os.path.join(BUILD, "scratch")]
    if args.trace:
        cmd.append("--trace=" + os.path.join(BUILD, "trace"))
    try:
        return subprocess.run(cmd, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

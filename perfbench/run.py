#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload open-corpus|edit-storm|validate-emit \
        --seed N --seconds S --trace 0|1

Run from the repository root. The library sources under src/ and the
benchmark program under perfbench/src/ are built (Release) into
$CARGO_TARGET_DIR (default .bench_build); the build log goes to stderr.
The program's report and its final JSON result line go to stdout
unchanged. Exits non-zero, printing no result, when the sources are
missing, the build fails or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("open-corpus", "edit-storm", "validate-emit")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "ps_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at src/ beside perfbench/",
              file=sys.stderr)
        return 2

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                               or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(os.path.join(out_root, "perfbench-release"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected_emission.txt"),
           "--workdir", os.path.join(out_root, "run")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout if proc.returncode == 0 else "")
        print(f"perfbench: ps_perfbench exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 5
    try:
        json.loads(lines[-1])
    except ValueError:
        print("perfbench: ps_perfbench printed no result line", file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

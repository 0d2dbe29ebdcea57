#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload tailor --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (the bespoke library from src/ plus the
benchmark program) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set, then runs the benchmark
program. Its report is passed through; its last line is one JSON object
whose metric names are checked against BENCHMARK.json before it is
printed. Build output goes to stderr.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out, target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-G", "Unix Makefiles", "-S", BENCH_DIR,
                        "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the harness self-tests only")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    try:
        build(out, "perfbench_selftest" if args.self_test else "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        env = dict(os.environ, TEST_TMPDIR=out)
        return subprocess.run([os.path.join(out, "perfbench_selftest")],
                              env=env).returncode

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT,
           "--work-dir", os.path.join(out, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        got = list(result["metrics"])
    except (ValueError, KeyError, TypeError) as e:
        print(f"perfbench: malformed result line: {e}", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace)
    if got != want:
        print(f"perfbench: metrics {sorted(set(got) ^ set(want))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

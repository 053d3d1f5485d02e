#!/usr/bin/env python3
"""Builds and runs the Elmo end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload send_fanout --seed 1 --seconds 10 --trace 0

Workloads: send_fanout, join_probe (see bench.cc). The first
run configures and compiles perfbench/ (all of ../src plus bench.cc) into
.bench_build/perfbench with an optimized build; later runs only rebuild what
changed. Build output and the benchmark's log go to stderr. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "elmo_perfbench")
# Set-ups, warm-up and the final checks, on top of the measured time.
SLACK_S = 90


def build():
    configured = any(os.path.isfile(os.path.join(BUILD, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        os.makedirs(BUILD, exist_ok=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + SLACK_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"elmo_perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed elmo_perfbench result")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    try:
        build()
        result = run(args)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

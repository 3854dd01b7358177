#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

Usage (from the root of a checkout):

    python3 wallbench/run.py --workload rpc|stream|inproc|all --seed N \
        --seconds S --trace 0|1

Builds `wallbench` from source with CMake into the build directory
(`$CARGO_TARGET_DIR`, default `.bench_build`, under the checkout root), then
runs it. The binary prints a human-readable table followed by one JSON line
(the last line of standard output). `--workload all` runs the three
workloads in turn, each ending in its own JSON line. With `--trace 1` it also writes its span
file next to the build.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Besides the measured seconds a run spends a few seconds on set-ups, CPU
# placement and warmup (twice under --trace 1).
RUN_SLACK_S = 140
WORKLOADS = ["rpc", "stream", "inproc"]


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "wallbench"


def build(out: Path) -> Path:
    binary = out / "wallbench"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "wallbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit(f"wallbench: build step failed: {' '.join(cmd)}")
    return binary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    binary = build(out)
    codes = [run(binary, out, workload, args)
             for workload in (WORKLOADS if args.workload == "all"
                              else [args.workload])]
    # Any failure outranks "unavailable" (3): one workload's missing sockets
    # must not hide another's wrong output.
    if any(rc not in (0, 3) for rc in codes):
        return 1
    return 3 if 3 in codes else 0


def run(binary: Path, out: Path, workload: str, args) -> int:
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(out / f"spans-{workload}-{args.seed}.tsv")]
    timeout = args.seconds + RUN_SLACK_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"wallbench: run exceeded {timeout:.0f} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the msynth benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 30 \
        --trace 0 [--smoke] [--inject-fault]

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the library under src/ plus the perfbench
program) in Release mode into a directory of its own under $CARGO_TARGET_DIR,
or .bench_build when that is unset, keyed by the checkout's path, so two
checkouts that share a build root never build each other's sources; later
calls only rebuild what changed. After a call that compiled the
program it waits COOLDOWN_S before measuring: on a shared VM the minutes
after a four-core build ran up to 60% slower. Build output goes to
stderr, so the JSON result stays the last line of stdout. Exits non-zero,
with no result, when the build or the run fails, or when the run outlives
a timeout of RUN_MARGIN_S plus RUN_TIMEOUT_PER_S times --seconds (a run
takes about --seconds plus a few seconds; the timeout only catches hangs).
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_MARGIN_S = 60
RUN_TIMEOUT_PER_S = 3
COOLDOWN_S = 180


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    key = hashlib.sha256(ROOT.encode()).hexdigest()[:16]
    return os.path.join(ROOT, path, "perfbench-" + key)


def build():
    """Returns the program's path and whether this call compiled it."""
    out = build_dir()
    binary = os.path.join(out, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None, False
    return binary, os.path.getmtime(binary) != before


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_suite", "scale_route", "service_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the fixed work to a few seconds")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the first returned chip")
    args = parser.parse_args()

    binary, compiled = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if compiled:
        print(f"run.py: built; cooling down {COOLDOWN_S} s", file=sys.stderr)
        time.sleep(COOLDOWN_S)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit()]
    if args.smoke:
        command.append("--smoke")
    if args.inject_fault:
        command.append("--inject-fault")
    with subprocess.Popen(command, cwd=ROOT) as proc:
        try:
            return proc.wait(
                timeout=RUN_MARGIN_S + RUN_TIMEOUT_PER_S * args.seconds)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("run.py: benchmark timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

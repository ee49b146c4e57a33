#!/usr/bin/env python3
"""Builds and runs one workload of the FreeRide benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Rust benchmark in this directory is built in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`) and run as a child process,
and its result line is printed last. With `--trace 0` the benchmark is
run a second time for one untimed run of the workload, and the peak
resident memory of that process is added as `peak_rss_mib`.
Exits non-zero, printing no result, when the build or the run fails.
See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-mixed", "fleet-sched", "service-chaos")
# A run that has not ended by then is stopped.
RUN_TIMEOUT_S = 170


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        print(f"cannot run cargo: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run(exe, args, once=False):
    """Runs the benchmark binary; returns (exit code, stdout, peak RSS in KiB)."""
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.join(HERE, "out"),
        "--once", "1" if once else "0",
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        # wait4 reports the child's own peak RSS (ru_maxrss, KiB on Linux).
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        print("benchmark build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target_dir, "release", "freeride-perfbench")
    code, out, _ = run(exe, args)
    timed = result_of(code, out)
    if timed is None:
        return 1
    lines, result = timed
    if not args.trace:
        # A user runs a workload once per process; timed repeats in one
        # process would add the allocator's retained memory to the peak.
        code, out, peak_kib = run(exe, args, once=True)
        once = result_of(code, out)
        if once is None:
            return 1
        _, once_result = once
        result["attempted"] += once_result["attempted"]
        result["failed"] += once_result["failed"]
        result["correct"] = result["correct"] and once_result["correct"]
        peak_mib = peak_kib / 1024.0
        result["metrics"]["peak_rss_mib"] = {"value": peak_mib, "unit": "MiB"}
        lines.append(f"{'peak_rss_mib':<44} {peak_mib:>16.6f} MiB")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def result_of(code, out):
    """The printed lines and the parsed result of one binary run, or None."""
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print(f"benchmark run failed (exit {code})", file=sys.stderr)
        return None
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"unreadable result line: {e}", file=sys.stderr)
        return None


if __name__ == "__main__":
    sys.exit(main())

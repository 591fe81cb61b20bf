#!/usr/bin/env python3
"""Builds rdbench from this checkout and runs one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds benchmark/ (which builds the simulator from the
repository root) in .bench_build/ with CMake, then runs rdbench there:
S seconds of measured phase, with --trace 1 the traced run. Build output
goes to stderr. stdout carries rdbench's report line and, last, the result
object, after checking that its metric names are exactly the ones
BENCHMARK.json lists for the mode. Exits non-zero, printing no result, if
the build fails (as it does outside a full checkout) or the result does not
match BENCHMARK.json; exits with rdbench's code otherwise.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_child(argv, timeout, **kwargs):
    """Runs argv to completion; on timeout or interruption kills it and
    waits for it, so no process outlives this script."""
    child = subprocess.Popen(argv, **kwargs)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    except BaseException:
        child.kill()
        child.wait()
        raise


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # One build at a time per checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"),
                         "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "--target", "rdbench",
                      "-j", jobs])
        for step in steps:
            code, _ = run_child(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
            if code != 0:
                return False
    return True


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not build():
        log("build failed")
        return 1

    argv = [os.path.join(BUILD, "rdbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--scratch", BUILD, "--git-sha", git_sha()]
    if args.trace:
        argv += ["--traced", "--trace-out",
                 os.path.join(BUILD, f"rdbench-trace-{args.workload}.json")]
    try:
        code, out = run_child(argv, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"rdbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (IndexError, ValueError, KeyError, TypeError):
        log(f"rdbench (exit {code}) printed no result")
        return code or 1
    expected = expected_metrics(args.trace)
    if len(names) != len(expected) or set(names) != set(expected):
        log("rdbench's metrics differ from BENCHMARK.json: " + " ".join(names))
        return 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

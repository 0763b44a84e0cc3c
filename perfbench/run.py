#!/usr/bin/env python3
"""Builds and runs the reconciliation benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of the repository. The first call configures and builds
the benchmark (Release) under .bench_build/perfbench; later calls rebuild
only what changed. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. Traced runs write a
chrome-trace file under .bench_out/.

--self-check runs every workload at tiny scale, untraced and traced, and
checks that each prints every metric named in BENCHMARK.json with its unit
and that every diff check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("replica-pull", "small-adaptive", "bulk-rateless")
RUN_LIMIT_S = 170  # the benchmark must exit within 180 s of a run's start


def build():
    """Configures (once) and builds the benchmark; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def run(args, timeout_s):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded its time limit\n")
        return 1, ""
    return proc.returncode, out


def self_check():
    """Tiny-scale run of every workload in both modes; checks the metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run(["--workload", workload, "--seed", "1",
                             "--seconds", "2", "--trace", str(trace),
                             "--tiny"], RUN_LIMIT_S)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            problems = []
            if code != 0:
                problems.append("exit code %d" % code)
            if result.get("correct") is not True:
                problems.append("diff checks failed")
            for name, unit in want[trace].items():
                got = metrics.get(name)
                if got is None:
                    problems.append("missing " + name)
                elif got.get("unit") != unit:
                    problems.append("%s unit %r, want %r"
                                    % (name, got.get("unit"), unit))
            extra = set(metrics) - set(want[trace])
            if extra:
                problems.append("unlisted metrics " + ", ".join(sorted(extra)))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("self-check %-15s trace=%d: %d metrics, %s"
                  % (workload, trace, len(metrics), status))
            ok = ok and not problems
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_check:
        return self_check()
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # A run normally finishes in a fraction of the limit; after a first
    # build (which may take minutes) it still gets at least a minute.
    code, out = run(bench_args,
                    max(60.0, RUN_LIMIT_S - (time.monotonic() - started)))
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

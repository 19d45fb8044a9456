#!/usr/bin/env python3
"""Shuffle-path benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench_driver from source with CMake into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and passes the
driver binary's output through: a host record line, then the result as the last
line. --selftest runs every workload at a tiny size in both modes and checks
that every metric BENCHMARK.json names is emitted with its unit.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ tree next to perfbench/; nothing to build")
        return None
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S).returncode
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return None
    return os.path.join(out, "perfbench_driver")


def run_driver(exe, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    # Relative to the checkout root, so the distributed runs' socket paths
    # stay short (sockaddr_un caps them near 100 bytes).
    workdir = os.path.relpath(os.path.join(build_dir(), "run"), ROOT)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir] + (["--tiny"] if tiny else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # perfbench_driver and any worker it forked
        proc.communicate()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def selftest(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, lines = run_driver(exe, w["name"], 1, 1, trace, tiny=True)
            where = f"{w['name']} --trace {trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: no result line (exit {rc})")
                continue
            if rc != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: exit {rc}, correct={result['correct']}, "
                                f"failed={result['failed']}")
            got = result["metrics"]
            for name, unit in expected[trace].items():
                if name not in got:
                    problems.append(f"{where}: metric {name} missing")
                elif got[name]["unit"] != unit:
                    problems.append(f"{where}: {name} has unit {got[name]['unit']}, want {unit}")
                elif not isinstance(got[name]["value"], (int, float)) or \
                        not math.isfinite(got[name]["value"]):
                    problems.append(f"{where}: {name} is not a finite number")
            for name in sorted(set(got) - set(expected[trace])):
                problems.append(f"{where}: metric {name} is not in BENCHMARK.json")
            log(f"selftest {where}: {len(got)} metrics")
    for p in problems:
        log(f"selftest FAIL: {p}")
    log("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    if args.selftest:
        return selftest(exe)
    rc, lines = run_driver(exe, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return rc


if __name__ == "__main__":
    sys.exit(main())

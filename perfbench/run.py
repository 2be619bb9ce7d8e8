#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload easy_backlog --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. The first call builds perfbench/ (the
engine sources under src/ plus the benchmark binary) into
.bench_build/perfbench and runs the helper self-tests once per build; later
calls only check that the build is up to date. It then runs one workload
and prints the binary's per-pass lines followed by the result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 1 prints the per-layer metrics instead of the end-to-end ones and
writes the last traced pass's spans to
.bench_build/perfbench/spans-<workload>.jsonl.
Exit status is 0 when a result line was printed, non-zero otherwise.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
SELFTEST_STAMP = os.path.join(BUILD, "selftest.result")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build (both incremental); True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def selftest_ok():
    """Run the helper self-tests once per build; cache the verdict."""
    built = os.path.getmtime(SELFTEST)
    if (os.path.exists(SELFTEST_STAMP)
            and os.path.getmtime(SELFTEST_STAMP) >= built):
        with open(SELFTEST_STAMP) as f:
            return f.read().strip() == "ok"
    proc = subprocess.run([SELFTEST], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=RUN_TIMEOUT_S)
    ok = proc.returncode == 0
    if not ok:
        sys.stderr.write(proc.stdout)
    with open(SELFTEST_STAMP, "w") as f:
        f.write("ok\n" if ok else "failed\n")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build():
            return 1
        selftest = selftest_ok()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, f"spans-{args.workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark binary exited with status {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if not selftest:
        log("helper self-tests failed; marking the run incorrect")
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of reasched: builds what it runs, runs one workload
and prints the result as the last line of standard output.

    python3 e2ebench/run.py --workload agent_panel --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree. It builds the `reasched` library, the
`reasched_service` daemon and the benchmark program `e2e_bench` (Release)
under `.bench_build/e2ebench`, then runs it. With `--trace 1` the program
also writes the run's spans as Chrome trace-event JSON to
`.bench_build/e2ebench/trace-<workload>.json`, which is checked with
`tools/validate_trace.py`. See e2ebench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("agent_panel", "baseline_panel", "rjms_stream")
BUILD = os.path.join(".bench_build", "e2ebench")
TIME_LIMIT_S = 170


def fail(msg: str) -> None:
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build() -> None:
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a reasched source tree (CMakeLists.txt and src/ not found)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "e2ebench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "e2e_bench", "reasched_service", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    trace_out = os.path.join(BUILD, f"trace-{args.workload}.json")
    cmd = [os.path.join(BUILD, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--service", os.path.join(BUILD, "reasched", "apps", "reasched_service"),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {TIME_LIMIT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"e2e_bench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    if args.trace:
        check = subprocess.run([sys.executable, os.path.join("tools", "validate_trace.py"),
                                trace_out, "--min-events", "1"], stdout=sys.stderr)
        if check.returncode != 0:
            print("e2ebench: span export rejected by tools/validate_trace.py", file=sys.stderr)
            result["correct"] = False
    print(f"elapsed {time.monotonic() - start:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""MCML benchmark: build the workload runner, measure one run, print its metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload table1-counts --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only if the program built, ran and passed every output check.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("table1-counts", "dt-accmc", "model-zoo", "serve-count")
SETUP_PROBES = 7
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join(ROOT, "perfbench", "out")


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build():
    """Build the runner from source; the dune cache stays off so that the
    build reads and writes only inside the checkout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout[-4000:])
        fail("build failed")


def setup_seconds(workload, seed):
    """Seconds from spawning a fresh runner to its "ready" line: process
    start, spec parsing, the count cache and, for serve-count, the server
    and its connection.  Divided, like every time the runner reports, by
    the host's slowdown, which the runner measures right after."""
    t0 = time.perf_counter()
    p = subprocess.Popen([EXE, "--setup-only", "--workload", workload, "--seed", str(seed)],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    elapsed = time.perf_counter() - t0
    rest = p.stdout.read().split()
    p.stdout.close()
    if p.wait(timeout=60) != 0 or line.strip() != "ready" or len(rest) != 1:
        fail("set-up probe failed")
    return elapsed / float(rest[0])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    setup = None
    if args.trace == 0:
        probes = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        setup = statistics.median(probes)
        print("setup probes (s): " + " ".join("%.4f" % s for s in probes))

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        cmd += ["--trace-out", spans]
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail("run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("the runner printed no result (exit code %d)" % p.returncode)
    for line in lines[:-1]:
        print(line)
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and p.returncode == 0 else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of FALCON's interactive loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (which compiles the FALCON libraries from src/) into
.bench_build/perfbench with CMake in Release mode, then runs one workload.
The human-readable report goes to stderr; the last line of stdout is one
JSON object {correct, attempted, failed, metrics}. Exits non-zero, without
printing a result, when the build or the run fails, or when the result's
metric names and units differ from the end_to_end (--trace 0) or per_layer
(--trace 1) list of BENCHMARK.json.

Workloads: session_large, stream_append, service_hospital (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "falcon_perfbench")
WORKLOADS = ("session_large", "stream_append", "service_hospital")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, env, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log("error: timed out: " + " ".join(cmd))
        return 1


def build(env):
    if run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S) != 0:
        return False
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                      "falcon_perfbench", "-j", jobs], env,
                     BUILD_TIMEOUT_S) == 0


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for `trace`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace == "1" else "end_to_end"]}


def valid_result(line, declared):
    """True if `line` is a result whose metrics are exactly `declared`."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict)):
        return False
    units = {name: m.get("unit") for name, m in result["metrics"].items()
             if isinstance(m, dict)}
    if units != declared:
        log("error: result metrics differ from BENCHMARK.json: %s" %
            sorted(set(units.items()) ^ set(declared.items())))
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    env = dict(os.environ)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    if not build(env):
        log("error: build failed")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work_dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: benchmark run timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1], declared):
        log("error: benchmark run failed (exit %d)" % proc.returncode)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py [--workloads a,b] [--second-seed-base 101]

For each workload it makes two sets of ten untraced runs of
perfbench/run.py, one seed per run: seeds 1..10, then 11..20. For each
end-to-end metric it reports, per set, the median and the spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric is
steady when every set's spread, setup_s included, is within the metric's
bound, and the two sets' medians differ by no more than the bound in
either direction. With --second-seed-base the whole check is repeated on
the seeds from that base on.

Also prints how much user_cost varies with the seed: the part of each
workload's outcome that the seed changes.

Prints every run's values in run order (drift over time shows there),
with the share of CPU time the hypervisor stole from this machine during
the run (steal, from /proc/stat; 0 on bare metal): on a shared virtual
machine, sets made while steal is high run slower. Exits 0 when every
metric on every workload is steady, 1 otherwise. Raw values are written to
.bench_build/steady.json after each set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


RUNS = 10
SETS = 2
FIRST_SEED_BASE = 1


def cpu_jiffies():
    """(steal, total) CPU jiffies of the machine so far, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    if len(fields) < 8:
        return None
    return fields[7], sum(fields[:8])


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def moved_by(first, second):
    """Relative change of `second` against `first`, in either direction."""
    return abs(second - first) / first if first else float("inf")


def save(raw):
    out = os.path.join(ROOT, ".bench_build", "steady.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)


def check(bench, workload, seed_base, raw):
    ok = True
    per_set = []
    for k in range(SETS):
        results = []
        for i in range(RUNS):
            seed = seed_base + k * RUNS + i
            before = cpu_jiffies()
            res = run_once(workload, seed, bench["run_seconds"])
            after = cpu_jiffies()
            steal = ""
            if before and after and after[1] > before[1]:
                steal = " steal=%.3f" % ((after[0] - before[0]) /
                                         (after[1] - before[1]))
            print("  run seed %d: %s%s" % (seed, " ".join(
                "%s=%.4g" % (m["name"], res["metrics"][m["name"]]["value"])
                for m in bench["end_to_end"]), steal), flush=True)
            if not res["correct"] or res["failed"]:
                print("  %s seed %d: correct=%s failed=%d" %
                      (workload, seed, res["correct"], res["failed"]))
                ok = False
            results.append(res)
        raw.setdefault(workload, []).append(
            {"seed_base": seed_base + k * RUNS, "results": results})
        per_set.append(results)
        save(raw)

    print("%s (seeds %d..%d)" % (workload, seed_base,
                                 seed_base + SETS * RUNS - 1))
    print("  %-16s %-6s %-7s %s" % ("metric", "bound", "steady",
                                    "median [spread] per set"))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        bound = metric["bound"]
        medians = []
        cells = []
        steady = True
        for results in per_set:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            sp = spread(values)
            medians.append(med)
            cells.append("%.6g [%.3f]" % (med, sp))
            if sp > bound:
                steady = False
        for med in medians[1:]:
            if moved_by(medians[0], med) > bound:
                steady = False
        ok = ok and steady
        print("  %-16s %-6.3g %-7s %s" % (name, bound,
                                          "yes" if steady else "NO",
                                          "  ".join(cells)))
    costs = [r["metrics"]["user_cost"]["value"]
             for results in per_set for r in results]
    print("  seed sensitivity: user_cost ranges %.0f..%.0f over %d seeds" %
          (min(costs), max(costs), len(costs)))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--second-seed-base", type=int, default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    bases = [FIRST_SEED_BASE]
    if args.second_seed_base is not None:
        bases.append(args.second_seed_base)

    raw = {}
    ok = True
    for base in bases:
        for workload in workloads:
            ok = check(bench, workload, base, raw) and ok
    save(raw)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

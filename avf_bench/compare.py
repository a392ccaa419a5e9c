#!/usr/bin/env python3
"""Compare avf_bench results of a parent commit and a change.

    python3 avf_bench/compare.py --parent p1.json p2.json ... \\
                                 --change c1.json c2.json ...

Each file is the --out document of one untraced run.  Runs pair up by
(workload, seed); a side may hold only one run per (workload, seed).  For
every workload and end-to-end metric of BENCHMARK.json the tool prints one
row, tested in this order:

  worse       the change's median is worse than the parent's by more than
              the metric's bound
  improved    at least 10 pairs, the change wins at least 9 in 10 of them,
              and the medians differ by more than the parent's own spread
              (q3 - q1)
  unresolved  the spread between runs, (q3 - q1) / median on either side,
              is wider than the bound and not every change run beats
              every parent run
  unchanged   otherwise

Then one row per workload says whether the simulated results (sim-time
metrics, deterministic counts, fingerprints) of paired runs are
bit-identical.  The exit code is 1 when a row is worse or a run failed.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Fewest pairs a gain may rest on, and the share of them it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths):
    runs = []
    seen = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("trace"):
            sys.exit(f"compare.py: {path} is a traced run; compare untraced runs")
        key = (doc["workload"], doc["seed"])
        if key in seen:
            sys.exit(f"compare.py: {path} and {seen[key]} are both "
                     f"{key[0]} seed {key[1]}; give each run its own seed")
        seen[key] = path
        runs.append(doc)
    return runs


def spread(values):
    """(q3 - q1) of the sample, as statistics.quantiles computes it."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(metric, parent, change, pairs):
    """The row for one metric: values are per-run medians, pairs are
    (parent, change) values of runs with the same seed."""
    lower = metric["better"] == "lower"
    mp = statistics.median(parent)
    mc = statistics.median(change)

    def better(a, b):
        return a < b if lower else a > b

    worse_by = (mc - mp) / mp if lower else (mp - mc) / mp
    wide = max(spread(parent) / mp, spread(change) / mc) > metric["bound"]
    wins = sum(1 for p, c in pairs if better(c, p))
    all_better = all(better(c, p) for c in change for p in parent)
    if worse_by > metric["bound"]:
        state = "worse"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better(mc, mp) and abs(mc - mp) > spread(parent)):
        state = "improved"
    elif wide and not all_better:
        state = "unresolved"
    else:
        state = "unchanged"
    return state, mp, mc, worse_by, wins


def same_simulation(a, b):
    """Names whose exact values or fingerprints differ between two runs."""
    diff = []
    for key in ("exact", "fingerprints"):
        for name in sorted(set(a[key]) | set(b[key])):
            if a[key].get(name, "missing") != b[key].get(name, "missing"):
                diff.append(name)
    return diff


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark-json",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark_json) as f:
        metrics = json.load(f)["end_to_end"]
    parent = load_runs(args.parent)
    change = load_runs(args.change)

    failing = False
    print(f"{'workload':<18} {'metric':<12} {'verdict':<10} {'parent':>12} "
          f"{'change':>12} {'worse by':>9} {'bound':>6} wins")
    workloads = sorted({r["workload"] for r in parent} &
                       {r["workload"] for r in change})
    for w in workloads:
        p_runs = [r for r in parent if r["workload"] == w]
        c_runs = [r for r in change if r["workload"] == w]
        by_seed = {r["seed"]: r for r in p_runs}
        paired = [(by_seed[r["seed"]], r) for r in c_runs if r["seed"] in by_seed]
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
            if bad:
                failing = True
                print(f"{w:<18} {side} runs failed their checks (seeds {bad})")
        for m in metrics:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in paired]
            state, mp, mc, worse_by, wins = verdict(m, pv, cv, pairs)
            failing = failing or state == "worse"
            print(f"{w:<18} {name:<12} {state:<10} {mp:>12.6g} {mc:>12.6g} "
                  f"{worse_by:>+9.2%} {m['bound']:>6.2f} {wins}/{len(pairs)}")
        differing = sorted({n for p, c in paired for n in same_simulation(p, c)})
        if not paired:
            print(f"{w:<18} simulation  no runs share a seed")
        elif differing:
            print(f"{w:<18} simulation  DIFFERS in: {', '.join(differing)}")
        else:
            print(f"{w:<18} simulation  bit-identical over {len(paired)} pairs")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of avf_bench: every workload at --smoke sizes.

    python3 avf_bench/smoke.py --bin <avf_bench> [--benchmark-json FILE]

For each workload of BENCHMARK.json it asserts that
  - untraced and traced runs exit 0 with every check passed (the binary
    itself requires traced reps to reproduce the untraced warm-up's
    sim-time metrics, counts and fingerprints bit for bit);
  - the result line carries exactly the end-to-end metrics (untraced) or
    the per-layer metrics (traced), each with its BENCHMARK.json unit;
  - two processes with the same seed agree bit for bit, and seed 2 changes
    the fingerprints, so the seed reaches the inputs;
  - the span log parses and names only known layers;
  - a traced rep stepped its worlds on at most one thread, so no probe
    read a cache that another thread could move;
and that compare.py reads the result files and ranks its verdicts
correctly on synthetic samples.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS = {"codec.compress", "viz.server", "viz.client", "adapt.decide",
          "sim.link", "sim.other", "viz.world", "adapt.stack", "perfdb.run",
          "perfdb.build", "wavelet.pyramid"}

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}", flush=True)
    return condition


def run(binary, workload, seed, trace, out, spans=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--smoke",
           "--trace", str(trace), "--out", out]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    label = f"{workload} seed={seed} trace={trace}"
    if not check(proc.returncode == 0,
                 f"{label}: exit {proc.returncode}\n{proc.stdout[-3000:]}"
                 f"\n{proc.stderr[-2000:]}"):
        return None
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(line)}")
    check(line["correct"] is True and line["failed"] == 0,
          f"{label}: correct={line['correct']} failed={line['failed']}")
    check(isinstance(line["attempted"], int) and line["attempted"] >= 1,
          f"{label}: attempted={line['attempted']}")
    with open(out) as f:
        doc = json.load(f)
    return line, doc


def check_metrics(label, line, expected, positive):
    metrics = line["metrics"]
    check(list(metrics) == [m["name"] for m in expected],
          f"{label}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"])
        if not check(got is not None, f"{label}: {m['name']} missing"):
            continue
        check(got["unit"] == m["unit"],
              f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        value = got["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {m['name']} = {value!r} is not a finite number")
        if positive:
            check(value > 0, f"{label}: {m['name']} = {value} is not > 0")


def check_spans(label, path):
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    check(len(spans) > 0, f"{label}: empty span log")
    for s in spans:
        if not (check(s["name"] in LAYERS, f"{label}: unknown span {s['name']}")
                and check(s["end_ns"] >= s["start_ns"],
                          f"{label}: span ends before it starts")):
            break


def check_verdicts():
    sys.path.insert(0, HERE)
    from compare import verdict
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}
    parent = [1.0, 1.3, 0.8, 1.1, 0.9, 1.2, 1.0, 0.7, 1.4, 1.0]
    # Twice as slow but noisy: worse, not unresolved.
    slow = [2 * v for v in parent]
    check(verdict(metric, parent, slow, list(zip(parent, slow)))[0] == "worse",
          "compare.py: a 2x regression with a wide spread is not 'worse'")
    # Faster in every pair: a gain needs ten pairs, not two.
    fast = [0.5 * v for v in parent]
    check(verdict(metric, parent[:2], fast[:2],
                  list(zip(parent[:2], fast[:2])))[0] != "improved",
          "compare.py: two pairs were enough to claim a gain")
    check(verdict(metric, parent, fast, list(zip(parent, fast)))[0]
          == "improved", "compare.py: ten winning pairs are not 'improved'")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bin", required=True)
    parser.add_argument("--benchmark-json",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark_json) as f:
        bench = json.load(f)

    with tempfile.TemporaryDirectory() as tmp:
        seed1_docs = []
        for w in (w["name"] for w in bench["workloads"]):
            print(f"== {w}", flush=True)
            path = lambda name: os.path.join(tmp, f"{w}-{name}")
            plain = run(args.bin, w, 1, 0, path("1-0.json"))
            traced = run(args.bin, w, 1, 1, path("1-1.json"), path("spans.jsonl"))
            other = run(args.bin, w, 2, 0, path("2-0.json"))
            if plain:
                check_metrics(f"{w} untraced", plain[0], bench["end_to_end"], True)
                seed1_docs.append(path("1-0.json"))
            if traced:
                check_metrics(f"{w} traced", traced[0], bench["per_layer"], False)
                check_spans(w, path("spans.jsonl"))
                check(traced[1]["trace_step_threads"] <= 1,
                      f"{w}: a traced rep stepped worlds on "
                      f"{traced[1]['trace_step_threads']} threads")
            if plain and traced:
                for key in ("exact", "fingerprints"):
                    check(plain[1][key] == traced[1][key],
                          f"{w}: {key} differ between two seed-1 processes")
            if plain and other:
                fp1 = plain[1]["fingerprints"]
                fp2 = other[1]["fingerprints"]
                check(any(fp1[k] != fp2.get(k) for k in fp1),
                      f"{w}: seed 2 left every fingerprint unchanged")
        if seed1_docs:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"),
                 "--benchmark-json", args.benchmark_json,
                 "--parent", *seed1_docs, "--change", *seed1_docs],
                capture_output=True, text=True)
            print(proc.stdout, end="")
            check(proc.returncode == 0 and "bit-identical" in proc.stdout,
                  f"compare.py on identical runs: exit {proc.returncode}\n"
                  f"{proc.stderr}")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"),
                 "--benchmark-json", args.benchmark_json,
                 "--parent", seed1_docs[0], seed1_docs[0],
                 "--change", seed1_docs[0]],
                capture_output=True, text=True)
            check(proc.returncode != 0 and "own seed" in proc.stderr,
                  "compare.py accepted two runs of one workload and seed")
    check_verdicts()

    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

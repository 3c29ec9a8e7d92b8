#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and prints every end-to-end
metric's median, quartiles and spread.

    python3 vsbench/steady.py --workload cold-scan --runs 10 --seconds 20 --seed 1
    python3 vsbench/steady.py --workload cold-scan --runs 10 --seconds 20

With --seed every run uses that seed, so the runs have the same inputs and
differ only by run-to-run noise; precision_at_10 must then be identical in
every run, and the command says whether it was. Without --seed, run i uses
seed i (1..N), so the spread also covers the inputs. The spread is the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. Its output is
the evidence for the bounds in BENCHMARK.json. Run it from the root of a
checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}, exit {out.returncode})")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--seed", type=int, help="use this seed in every run (default: seeds 1..N)")
    a = p.parse_args()

    seeds = [a.seed] * a.runs if a.seed is not None else list(range(1, a.runs + 1))
    results = []
    for seed in seeds:
        r = run_once(a.workload, seed, a.seconds)
        results.append(r)
        share = r["failed"] / r["attempted"]
        values = " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items())
        print(f"# seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} ({share:.6f}) {values}", file=sys.stderr)

    summary = {}
    print(f"{'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
        print(f"{name:<28} {unit:<6} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f}")
    precisions = sorted({r["metrics"]["precision_at_10"]["value"] for r in results})
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"# all correct: {all(r['correct'] for r in results)}; failed shares seen: {shares}")
    print(f"# precision_at_10 identical in every run: {'yes' if len(precisions) == 1 else 'no'} "
          f"({len(precisions)} distinct values)")
    print(json.dumps({"workload": a.workload, "runs": a.runs, "seconds": a.seconds,
                      "seeds": seeds, "metrics": summary}))


if __name__ == "__main__":
    main()

"""Steadiness check: do two sets of runs of the same code agree?

    python3 pipebench/steady.py --runs 10 --out .pipebench_out/steady.json

Runs two interleaved sets (A and B) of ``--runs`` runs of every workload
in ``BENCHMARK.json``, each run in a fresh process with ``--trace 0`` and
the benchmark's own ``run_seconds``; run ``i`` of both sets uses seed
``--seed + i`` and the set that goes first alternates.  For each workload
and end-to-end metric it prints both medians, both sets' quartiles, their
spread (interquartile distance over the median) and the shift of B's
median against A's in the metric's worse direction, and whether the sets
agree within the metric's bound from ``BENCHMARK.json``: both spreads
within the bound and the shift no larger than it.  It also checks that
the share of failed operations is exactly the same in every run.  The suggested bound is three times the
larger spread seen, capped at 0.25.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def compare(sets: Dict[str, List[Dict[str, Any]]], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per end-to-end metric for one workload's two sets."""
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = spread([r["metrics"][name]["value"] for r in sets["A"]])
        b = spread([r["metrics"][name]["value"] for r in sets["B"]])
        shift = (b["median"] - a["median"]) / a["median"]
        worse = shift if metric["better"] == "lower" else -shift
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "bound": bound,
            "A": a,
            "B": b,
            "worse_shift": worse,
            "agree": max(a["spread"], b["spread"]) <= bound and worse <= bound,
            "steady": max(a["spread"], b["spread"]) < bound / 3.0,
            "suggested_bound": min(0.25, math.ceil(300.0 * max(a["spread"], b["spread"])) / 100.0),
        })
    return rows


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2 for quartiles")

    results: Dict[str, Dict[str, List[Dict[str, Any]]]] = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                result = one_run(workload, args.seed + i, seconds)
                results[workload][side].append(result)
                print(f"run {i} {workload} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)

    report: Dict[str, Any] = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    all_ok = True
    for workload in workloads:
        sets = results[workload]
        shares = {
            side: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for side, runs in sets.items()
        }
        per_run_shares = {r["failed"] / r["attempted"] for runs in sets.values() for r in runs}
        rows = compare(sets, spec)
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        ok = correct and len(per_run_shares) == 1 and all(row["agree"] for row in rows)
        all_ok = all_ok and ok
        report["workloads"][workload] = {
            "rows": rows, "failed_share": shares, "correct": correct, "agree": ok,
        }
        print(f"\n{workload}: correct={correct} failed share A={shares['A']:.3g} "
              f"B={shares['B']:.3g} (same in every run: {len(per_run_shares) == 1})")
        print(f"  {'metric':<22}{'median A':>12}{'median B':>12}{'IQR A':>22}{'IQR B':>22}"
              f"{'spread A':>9}{'spread B':>9}{'worse':>8}{'bound':>7}  agree steady suggest")
        for row in rows:
            a, b = row["A"], row["B"]
            print(f"  {row['metric']:<22}{a['median']:>12.5g}{b['median']:>12.5g}"
                  f"{a['q1']:>11.5g}-{a['q3']:<10.5g}{b['q1']:>11.5g}-{b['q3']:<10.5g}"
                  f"{a['spread']:>9.3f}{b['spread']:>9.3f}{row['worse_shift']:>8.3f}"
                  f"{row['bound']:>7.2f}  {str(row['agree']):<6}{str(row['steady']):<7}"
                  f"{row['suggested_bound']:.2f}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"report": report, "results": results}, handle, indent=1)
    print(f"\nall sets agree within their bounds: {all_ok}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

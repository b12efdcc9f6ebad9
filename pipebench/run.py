"""Run the hint-pipeline benchmark: one workload, or all three.

    python3 pipebench/run.py --workload campus_fleet --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --workload all --seed 1

A run repeats whole rounds (full replays of the workload's seeded trace,
see ``workloads.py``) until ``--seconds`` of replay time are measured,
checks every round's outputs, and prints each metric by name with its
unit.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs each workload in a fresh process, one after the
other.  Run from the root of a checkout that holds ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("campus_fleet", "walking_live", "crash_recovery")

#: End-to-end metrics, in output order: name -> unit.
END_TO_END = {
    "obs_per_s": "1/s",
    "hint_latency_ms_p50": "ms",
    "hint_latency_ms_p99": "ms",
    "recovery_ms": "ms",
    "checkpoint_kb": "kB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run, in output order: name -> unit.
PER_LAYER = {
    "stream.offer.calls": "count",
    "stream.offer.busy_s": "s",
    "stream.offer.rejected": "count",
    "stream.advance.calls": "count",
    "stream.advance.self_s": "s",
    "stream.advance.useful_ratio": "ratio",
    "stream.backlog.peak": "count",
    "telemetry.calls": "count",
    "telemetry.busy_s": "s",
    "telemetry.overhead_x": "x",
    "sim.step.calls": "count",
    "sim.step.self_s": "s",
    "core.push_csi.calls": "count",
    "core.push_csi.busy_s": "s",
    "core.push_csi.estimates": "count",
    "core.push_tof.calls": "count",
    "core.push_tof.busy_s": "s",
    "core.push_tof.samples": "count",
    "controller.update_hint.calls": "count",
    "controller.update_hint.busy_s": "s",
    "controller.observe.busy_s": "s",
    "controller.run_epoch.calls": "count",
    "controller.run_epoch.busy_s": "s",
    "controller.handovers": "count",
    "resilience.run.self_s": "s",
    "resilience.advance.self_s": "s",
    "resilience.checkpoint.calls": "count",
    "resilience.checkpoint.busy_s": "s",
    "resilience.checkpoint.bytes": "bytes",
    "resilience.recover.calls": "count",
    "resilience.recover.busy_s": "s",
    "resilience.rejected_artifacts": "count",
    "resilience.rollover.calls": "count",
    "resilience.rollover.busy_s": "s",
    "resilience.replayed_obs": "count",
    "trace.overhead_x": "x",
}


def pin_threads() -> None:
    """One thread: BLAS pools are sized from these when numpy loads."""
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[var] = "1"


def import_paths() -> None:
    """Make ``repro`` (from the checkout's ``src``) and the benchmark's
    own modules importable; fail loudly when the program is missing."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"pipebench: no program to measure: {SRC}/repro is missing")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------- metrics


def _rounds_summary(rounds: List[Any]) -> Tuple[bool, int, int, List[str]]:
    errors = [f"round {k}: {e}" for k, r in enumerate(rounds) for e in r.errors]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return not errors, attempted, failed, errors


def end_to_end_metrics(rounds: List[Any]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The run's end-to-end metrics.

    Throughput, the latency percentiles and the mean recovery time are
    taken per round and each is reported as the median over the run's
    rounds, as is set-up time.  Recovery is averaged within a round
    because a round's recoveries restore artifacts of very different
    sizes: their median jumps between neighbouring kills, their mean does
    not.
    """
    import resource

    import numpy as np

    values = {
        "obs_per_s": statistics.median(r.n_obs / r.wall_s for r in rounds),
        "hint_latency_ms_p50": statistics.median(
            1000.0 * float(np.percentile(r.latency_s, 50)) for r in rounds
        ),
        "hint_latency_ms_p99": statistics.median(
            1000.0 * float(np.percentile(r.latency_s, 99)) for r in rounds
        ),
        "recovery_ms": statistics.median(1000.0 * statistics.fmean(r.recovery_s) for r in rounds),
        "checkpoint_kb": rounds[-1].checkpoint_bytes / 1000.0,
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "rounds": len(rounds),
        "latency_samples_per_round": int(rounds[0].latency_s.size),
        "recoveries_per_round": len(rounds[0].recovery_s),
        "measured_s": round(sum(r.wall_s for r in rounds), 3),
        "round_obs_per_s": " ".join(f"{r.n_obs / r.wall_s:.0f}" for r in rounds),
    }
    return values, samples


def per_layer_metrics(
    tracer: Any, rounds: List[Any], untraced_obs_per_s: float, telemetry_overhead_x: float
) -> Dict[str, float]:
    """Per-layer figures of the traced rounds, per round (one full replay)."""
    n = float(len(rounds))
    wall = sum(r.wall_s for r in rounds)
    served = sum(r.n_obs for r in rounds)
    advance_calls = tracer.calls("stream.advance")
    telemetry_calls, telemetry_busy = tracer.prefix_totals("telemetry.")
    counter = tracer.counters.get
    values = {
        "stream.offer.calls": tracer.calls("stream.offer") / n,
        "stream.offer.busy_s": tracer.busy_s("stream.offer") / n,
        "stream.offer.rejected": sum(r.rejected for r in rounds) / n,
        "stream.advance.calls": advance_calls / n,
        "stream.advance.self_s": tracer.self_s("stream.advance") / n,
        "stream.advance.useful_ratio": (
            counter("stream.advance.useful", 0.0) / advance_calls if advance_calls else 0.0
        ),
        "stream.backlog.peak": counter("stream.backlog.peak", 0.0),
        "telemetry.calls": telemetry_calls / n,
        "telemetry.busy_s": telemetry_busy / n,
        "telemetry.overhead_x": telemetry_overhead_x,
        "sim.step.calls": tracer.calls("sim.step") / n,
        "sim.step.self_s": tracer.self_s("sim.step") / n,
        "core.push_csi.calls": tracer.calls("core.push_csi") / n,
        "core.push_csi.busy_s": tracer.busy_s("core.push_csi") / n,
        "core.push_csi.estimates": counter("core.push_csi.estimates", 0.0) / n,
        "core.push_tof.calls": tracer.calls("core.push_tof") / n,
        "core.push_tof.busy_s": tracer.busy_s("core.push_tof") / n,
        "core.push_tof.samples": counter("core.push_tof.samples", 0.0) / n,
        "controller.update_hint.calls": tracer.calls("controller.update_hint") / n,
        "controller.update_hint.busy_s": tracer.busy_s("controller.update_hint") / n,
        "controller.observe.busy_s": tracer.busy_s("controller.observe") / n,
        "controller.run_epoch.calls": tracer.calls("controller.run_epoch") / n,
        "controller.run_epoch.busy_s": tracer.busy_s("controller.run_epoch") / n,
        "controller.handovers": sum(r.handovers for r in rounds) / n,
        "resilience.run.self_s": tracer.self_s("resilience.run") / n,
        "resilience.advance.self_s": tracer.self_s("resilience.advance") / n,
        "resilience.checkpoint.calls": tracer.calls("resilience.checkpoint") / n,
        "resilience.checkpoint.busy_s": tracer.busy_s("resilience.checkpoint") / n,
        "resilience.checkpoint.bytes": counter("resilience.checkpoint.bytes", 0.0) / n,
        "resilience.recover.calls": tracer.calls("resilience.recover") / n,
        "resilience.recover.busy_s": tracer.busy_s("resilience.recover") / n,
        "resilience.rejected_artifacts": counter("resilience.rejected_artifacts", 0.0) / n,
        "resilience.rollover.calls": tracer.calls("resilience.rollover") / n,
        "resilience.rollover.busy_s": tracer.busy_s("resilience.rollover") / n,
        "resilience.replayed_obs": sum(r.offered - r.n_obs for r in rounds) / n,
        "trace.overhead_x": untraced_obs_per_s / (served / wall),
    }
    return values


# -------------------------------------------------------------- one run


def run_workload(workload: Any, seconds: float, trace: bool, trace_path: str) -> Dict[str, Any]:
    """Run ``workload`` in this process and return its result object.

    With ``trace`` the first round runs untraced (the base of the
    overhead figures) and the rounds after it are traced; the spans are
    written to ``trace_path`` when the run ends.
    """
    from tracing import KINDS, Tracer
    from workloads import timed_replay

    try:
        workload.prepare()

        def one_round(tracer: Any = None) -> Any:
            rnd = workload.setup()
            timed_replay(workload, rnd, tracer)
            return workload.finish(rnd)

        base = one_round()
        tracer = Tracer() if trace else None
        rounds = [one_round(tracer)] if trace else [base]
        while len(rounds) < workload.min_rounds or sum(r.wall_s for r in rounds) < seconds:
            rounds.append(one_round(tracer))
        if tracer is None:
            values, samples = end_to_end_metrics(rounds)
            units = END_TO_END
            all_rounds = rounds
        else:
            null_wall_s = getattr(workload, "null_wall_s", 0.0)
            values = per_layer_metrics(
                tracer,
                rounds,
                base.n_obs / base.wall_s,
                base.wall_s / null_wall_s if null_wall_s else 1.0,
            )
            samples = {
                "traced_rounds": len(rounds),
                "stored_spans": len(tracer.spans),
                "span_cost_us inside, median of rounds": "%.3f" % (
                    1e6 * statistics.median(c.inside_s for c in tracer.calibrations)
                ),
                "span_cost_us outside (plain before after both)": " ".join(
                    "%.3f" % (1e6 * statistics.median(c.outside_s[kind] for c in tracer.calibrations))
                    for kind in KINDS
                ),
                "untraced round wall_s": f"{base.wall_s:.4g}",
                "traced round self_s, all spans": f"{sum(t[2] for t in tracer.totals.values()) / len(rounds):.4g}",
                "bench.*.self_s per round": " ".join(
                    f"{name[6:]}={total[2] / len(rounds):.4g}"
                    for name, total in sorted(tracer.totals.items())
                    if name.startswith("bench.")
                ),
            }
            units = PER_LAYER
            all_rounds = [base] + rounds
            tracer.write(
                trace_path,
                {"workload": workload.name, "seed": workload.seed, "rounds": len(rounds), "metrics": values},
            )
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    correct, attempted, failed, errors = _rounds_summary(all_rounds)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        "_errors": errors,
        "_samples": samples,
    }


def report(name: str, result: Dict[str, Any]) -> None:
    """Print the human-readable lines, then the result as the last line."""
    print(f"workload {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for key, value in result.pop("_samples").items():
        print(f"  {key:<34} {value}")
    for error in result.pop("_errors"):
        print(f"  CHECK FAILED: {error}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; a combined result last."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    import_paths()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        args.seed, os.path.join(ROOT, ".pipebench_work", f"{args.workload}-{os.getpid()}")
    )
    trace_path = os.path.join(ROOT, ".pipebench_out", f"trace-{args.workload}-seed{args.seed}.json")
    result = run_workload(workload, args.seconds, bool(args.trace), trace_path)
    report(args.workload, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

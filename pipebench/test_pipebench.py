"""Tests of the benchmark itself: its checks reject spoiled results, and a
tiny fleet of each workload runs end to end in seconds.

    python3 -m pytest pipebench
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
from checks import judging_steps  # noqa: E402
from repro.mobility.modes import Heading, MobilityMode  # noqa: E402
from run import END_TO_END, PER_LAYER, run_workload  # noqa: E402
from tracing import KINDS, Calibration, Tracer  # noqa: E402
from workloads import TINY_SIZES, WORKLOADS, kill_schedule, timed_replay, tiny  # noqa: E402

NAMES = sorted(WORKLOADS)


def replayed(name, tmp_path, seed=5, sizes=None):
    """A tiny workload with one round replayed but not yet checked."""
    workload = tiny(name, seed, str(tmp_path))
    if sizes is not None:
        workload.sizes = sizes
    workload.prepare()
    rnd = workload.setup()
    timed_replay(workload, rnd)
    return workload, rnd


@pytest.mark.parametrize("name", NAMES)
def test_tiny_round_passes_every_check(name, tmp_path):
    start = time.perf_counter()
    workload, rnd = replayed(name, tmp_path)
    result = workload.finish(rnd)
    assert time.perf_counter() - start < 30.0
    assert result.errors == []
    assert result.failed == 0
    assert result.attempted >= result.n_obs > 0
    assert result.latency_s.size == len(rnd.trace.labels) * (rnd.trace.n_steps - 1)
    assert np.all(result.latency_s > 0)
    assert result.checkpoint_bytes > 0 and result.recovery_s


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    workload = tiny(name, 3, str(tmp_path / "work"))
    result = run_workload(workload, 0.01, trace, str(tmp_path / "trace.json"))
    assert result["correct"] and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(expected)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == expected[key]
        assert np.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][key]["value"] > 0 for key in END_TO_END)
    else:
        with open(tmp_path / "trace.json", encoding="utf-8") as handle:
            totals = json.load(handle)["totals"]
        assert {"bench.offer_probe", "bench.hint_sink", "stream.offer", "sim.step"} <= set(totals)
    assert not os.path.exists(tmp_path / "work")


def test_static_hint_flipped_to_macro_is_rejected(tmp_path):
    workload, rnd = replayed("campus_fleet", tmp_path)
    static = int(np.flatnonzero(~rnd.trace.walking)[0])
    hint = rnd.sink.hints[static, 3]
    rnd.sink.hints[static, 3] = dataclasses.replace(hint, mode=MobilityMode.MACRO)
    errors = workload.finish(rnd).errors
    assert any("non-STATIC hints for static clients" in e for e in errors)


@pytest.mark.parametrize("name", NAMES)
def test_dropped_hint_is_rejected_and_counted(name, tmp_path):
    workload, rnd = replayed(name, tmp_path)
    rnd.sink.hints[1, 2] = None
    result = workload.finish(rnd)
    assert any("lack a hint" in e for e in result.errors)
    assert result.failed > 0


def test_walking_client_left_on_home_ap_is_rejected(tmp_path):
    workload, rnd = replayed("campus_fleet", tmp_path)
    walker = int(np.flatnonzero(rnd.trace.walking)[0])
    rnd.state["feed"].controller.association[walker] = workload.home_ap[walker]
    errors = workload.finish(rnd).errors
    assert any("did not end on the AP they walk toward" in e for e in errors)


def test_static_client_handover_is_rejected(tmp_path):
    workload, rnd = replayed("campus_fleet", tmp_path)
    static = int(np.flatnonzero(~rnd.trace.walking)[0])
    rnd.state["feed"].handovers[static] += 1
    errors = workload.finish(rnd).errors
    assert any("static clients handed over" in e for e in errors)


def test_walking_live_hint_differing_from_null_replay_is_rejected(tmp_path):
    workload, rnd = replayed("walking_live", tmp_path)
    hint = rnd.sink.hints[0, 4]
    rnd.sink.hints[0, 4] = dataclasses.replace(hint, csi_similarity=hint.csi_similarity + 1e-12)
    errors = workload.finish(rnd).errors
    assert any("differ from the NULL-recorder replay" in e for e in errors)


def test_crash_recovery_hint_differing_from_batch_reference_is_rejected(tmp_path):
    workload, rnd = replayed("crash_recovery", tmp_path)
    walker = int(np.flatnonzero(rnd.trace.walking)[0])
    last = rnd.trace.n_steps - 1
    hint = rnd.sink.hints[walker, last]
    assert hint.mode == MobilityMode.MACRO and hint.heading == Heading.AWAY
    rnd.sink.hints[walker, last] = dataclasses.replace(hint, csi_similarity=0.5)
    errors = workload.finish(rnd).errors
    assert errors == [f"1 hints differ from the batch reference (clients {walker})"]


def test_crash_recovery_recovers_from_every_kill(tmp_path):
    workload, rnd = replayed("crash_recovery", tmp_path)
    assert rnd.state["fired"] == TINY_SIZES["crash_recovery"].n_kills
    assert rnd.state["unrejected"] == 0


def test_recovery_that_raises_is_a_failed_operation(tmp_path):
    # Twelve kills: the twelfth drops a foreign file in place of the
    # newest artifact, the third kind of damage the schedule cycles to.
    sizes = dataclasses.replace(TINY_SIZES["crash_recovery"], n_kills=12, duration_s=14.0)
    workload, rnd = replayed("crash_recovery", tmp_path, sizes=sizes)
    result = workload.finish(rnd)
    assert result.errors == []
    assert result.attempted == result.n_obs + 12
    assert result.failed == rnd.state["recover_failures"]
    assert len(result.recovery_s) == 12 - result.failed


def test_kill_schedule_is_seeded_and_in_phase_with_the_cadence():
    a = kill_schedule(7, 28, 12, 2)
    assert a == kill_schedule(7, 28, 12, 2) and a != kill_schedule(8, 28, 12, 2)
    steps = [step for step, _ in a]
    assert steps == sorted(set(steps)) and steps[0] >= 3 and steps[-1] < 28
    assert all(step % 2 == 1 for step in steps)
    assert [mode for _, mode in a if mode] == ["truncate", "flip_byte", "wrong_format"]
    with pytest.raises(ValueError):
        kill_schedule(7, 20, 12, 2)


def test_judging_steps_clip_to_steps_with_hints():
    times = np.array([0.0, 0.02, 0.5, 0.52, 9.5, 9.98])
    assert judging_steps(times, 0.5, 20).tolist() == [1, 1, 1, 2, 19, 19]


def test_tracer_takes_its_own_cost_out_of_busy_and_self_times(monkeypatch):
    # Clock reads: parent opens, child opens, child closes, parent closes.
    clock = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    tracer = Tracer(Calibration({kind: 0.5 for kind in KINDS}, 0.25))
    tracer.open("parent")
    tracer.open("child", 0.5)
    tracer.close()
    tracer.close()
    assert tracer.busy_s("child") == tracer.self_s("child") == 2.0 - 0.25
    assert tracer.busy_s("parent") == 10.0 - 0.25
    # The child's whole interval and its wrapper's outside cost are not
    # the parent's work.
    assert tracer.self_s("parent") == 10.0 - 0.25 - 2.0 - 0.5


def test_calibration_finds_a_positive_cost_for_every_wrapper_kind():
    calibration = tracing.calibrate(calls=2000, repeats=3)
    assert set(calibration.outside_s) == set(KINDS)
    assert all(0.0 < cost < 1e-4 for cost in calibration.outside_s.values())
    assert 0.0 <= calibration.inside_s < 1e-4

"""Correctness checks applied to every round of every workload.

Each check is a pure function of a round's outputs and returns a list of
error strings (empty when the check passes).  The checks test properties
the method must have, or compare with a computation made apart from the
measured path; none compares with saved output.

Hints are held in an ``(n_clients, n_steps)`` object array: entry
``[i, s]`` is the :class:`repro.core.hints.MobilityEstimate` client ``i``
received for engine step ``s``, or ``None``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.mobility.modes import Heading, MobilityMode


def _first(indices: np.ndarray, limit: int = 3) -> str:
    return ", ".join(str(int(i)) for i in indices[:limit])


def check_accepted(offered: int, rejected: int) -> List[str]:
    """Every offered observation was accepted by the router."""
    if rejected:
        return [f"{rejected} of {offered} offers were refused"]
    return []


def check_hint_counts(hints: np.ndarray, duplicates: int) -> List[str]:
    """Each client received exactly one hint for each step 1..n_steps-1.

    Step 0 has none: the classifier needs two CSI snapshots before its
    first decision.
    """
    errors: List[str] = []
    present = hints != None  # noqa: E711 - element-wise test on an object array
    if present[:, 0].any():
        errors.append("hints delivered for step 0")
    counts = present[:, 1:].sum(axis=1)
    short = np.flatnonzero(counts != hints.shape[1] - 1)
    if short.size:
        errors.append(
            f"{short.size} clients lack a hint for some step "
            f"(clients {_first(short)}; expected {hints.shape[1] - 1} each)"
        )
    if duplicates:
        errors.append(f"{duplicates} hints delivered twice for the same step")
    return errors


def check_ground_truth(hints: np.ndarray, walking: np.ndarray) -> List[str]:
    """Static clients are always STATIC; a walking client's settled hint
    (``tof_window_full``) is MACRO/AWAY, the generator's ground truth."""
    errors: List[str] = []
    bad_static = [
        i
        for i in np.flatnonzero(~walking)
        for h in hints[i]
        if h is not None and h.mode != MobilityMode.STATIC
    ]
    if bad_static:
        errors.append(
            f"{len(bad_static)} non-STATIC hints for static clients "
            f"(clients {_first(np.unique(bad_static))})"
        )
    bad_walking = [
        i
        for i in np.flatnonzero(walking)
        for h in hints[i]
        if h is not None
        and h.tof_window_full
        and not (h.mode == MobilityMode.MACRO and h.heading == Heading.AWAY)
    ]
    if bad_walking:
        errors.append(
            f"{len(bad_walking)} settled walking hints are not MACRO/AWAY "
            f"(clients {_first(np.unique(bad_walking))})"
        )
    if walking.any() and not any(
        h is not None and h.tof_window_full for i in np.flatnonzero(walking) for h in hints[i]
    ):
        errors.append("no walking client ever settled its ToF window")
    return errors


def check_roaming(
    handovers: np.ndarray,
    association: np.ndarray,
    walking: np.ndarray,
    target_ap: np.ndarray,
) -> List[str]:
    """No static client hands over; every walking client ends the run on
    the AP it walks toward."""
    errors: List[str] = []
    roamed = np.flatnonzero(~walking & (handovers > 0))
    if roamed.size:
        errors.append(f"{roamed.size} static clients handed over (clients {_first(roamed)})")
    stranded = np.flatnonzero(walking & (association != target_ap))
    if stranded.size:
        errors.append(
            f"{stranded.size} walking clients did not end on the AP they walk "
            f"toward (clients {_first(stranded)})"
        )
    return errors


def check_equal(hints: np.ndarray, reference: np.ndarray, what: str) -> List[str]:
    """The round's hints equal ``reference`` exactly, field by field."""
    if hints.shape != reference.shape:
        return [f"hint table shape {hints.shape} != {what} {reference.shape}"]
    differ = np.flatnonzero(
        [a != b for a, b in zip(hints.ravel(), reference.ravel())]
    )
    if differ.size:
        clients = np.unique(differ // hints.shape[1])
        return [
            f"{differ.size} hints differ from {what} (clients {_first(clients)})"
        ]
    return []


def check_recoveries(fired: int, scheduled: int, unrejected: int) -> List[str]:
    """Every scheduled kill fired and was recovered from; every spoiled
    newest artifact was rejected rather than restored."""
    errors: List[str] = []
    if fired != scheduled:
        errors.append(f"{fired} of {scheduled} scheduled kills fired")
    if unrejected:
        errors.append(f"{unrejected} spoiled artifacts were not rejected by recovery")
    return errors


def failed_observations(
    hints: np.ndarray, obs_client: np.ndarray, obs_step: np.ndarray
) -> int:
    """Observations whose client has no hint for the step that judges
    them (see :func:`judging_steps`)."""
    present = hints != None  # noqa: E711 - element-wise test on an object array
    return int(np.count_nonzero(~present[obs_client, obs_step]))


def judging_steps(obs_time_s: np.ndarray, dt_s: float, n_steps: int) -> np.ndarray:
    """The step whose hint decides whether an observation was served.

    An observation at time ``t`` is consumed by the first step starting
    at or after ``t``; steps without a hint by design (step 0, and the
    ToF tail after the last CSI snapshot) defer to the nearest step that
    has one.
    """
    steps = np.ceil(obs_time_s / dt_s - 1e-9).astype(np.int64)
    return np.clip(steps, 1, n_steps - 1)


def all_errors(*groups: Optional[List[str]]) -> List[str]:
    return [error for group in groups if group for error in group]

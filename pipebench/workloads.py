"""The three seeded workloads of the hint-pipeline benchmark.

Every workload is a closed-loop replay of one seeded fleet trace: the
replay offers the next observation only after the previous
``offer``/``advance`` has returned.  One *round* is one full replay of
the trace through a freshly built service; a run repeats rounds until
its measured time is used up, so every run attempts whole rounds of the
same operations.

* ``campus_fleet`` -- 2048 clients, one in eight walking, served by a
  :class:`repro.resilience.ResilientService` with a sparse checkpoint
  cadence and the NULL recorder; every hint goes live into a
  :class:`repro.controller.Controller` running
  :class:`repro.controller.MobilityHintPolicy` over 16 APs at 1 s epochs.
* ``walking_live`` -- 128 clients, all walking, served by a bare
  :class:`repro.stream.StreamRouter` with a live
  :class:`repro.telemetry.TelemetryRecorder`.
* ``crash_recovery`` -- 1024 clients, one in eight walking, under a
  ``ResilientService`` with a dense checkpoint cadence, a horizon that
  rolls over every 4 s of service time, and 12 seeded kills, each
  followed by ``ResilientService.recover``; before every fourth kill the
  newest artifact is spoiled.

The program sees only the generated inputs: the seed picks the fleet
trace, the RSSI matrix the controller reads and the kill schedule.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from checks import (
    all_errors,
    check_accepted,
    check_equal,
    check_ground_truth,
    check_hint_counts,
    check_recoveries,
    check_roaming,
    failed_observations,
    judging_steps,
)
from repro.controller import Controller, MobilityHintPolicy
from repro.core.batched import BatchedMobilityClassifier
from repro.faults.chaos import (
    CORRUPTION_MODES,
    CheckpointCorruptionFault,
    ServiceKilled,
    ServiceKillFault,
)
from repro.resilience import (
    ResilienceConfig,
    ResilientService,
    SourceSpec,
    artifact_name,
    list_artifacts,
)
from repro.sim import BatchedSensingSession, SimulationEngine, TimeGrid
from repro.stream import (
    FleetSpec,
    Observation,
    SimulatedSource,
    StreamConfig,
    StreamRouter,
    load_checkpoint,
    save_checkpoint,
)
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder
from tracing import Tracer, patched, traced


@dataclass(frozen=True)
class Sizes:
    """The make-up of one workload's inputs."""

    n_clients: int
    walking_every: int
    duration_s: float
    checkpoint_every_s: float = 0.0
    horizon_steps: int = 0  # 0: one segment covers the whole trace
    n_kills: int = 0
    n_aps: int = 0


FULL_SIZES: Dict[str, Sizes] = {
    "campus_fleet": Sizes(2048, 8, 12.0, checkpoint_every_s=5.0, n_aps=16),
    "walking_live": Sizes(128, 1, 6.0),
    "crash_recovery": Sizes(1024, 8, 14.0, checkpoint_every_s=1.0, horizon_steps=8, n_kills=12),
}

#: Seconds-scale versions of the same workloads, for the smoke tests.
TINY_SIZES: Dict[str, Sizes] = {
    "campus_fleet": Sizes(32, 8, 12.0, checkpoint_every_s=5.0, n_aps=16),
    "walking_live": Sizes(8, 1, 6.0),
    "crash_recovery": Sizes(32, 8, 12.0, checkpoint_every_s=1.0, horizon_steps=8, n_kills=4),
}


# --------------------------------------------------------------- the trace


@dataclass
class Trace:
    """One seeded fleet trace plus the benchmark's index over it."""

    source: SimulatedSource
    observations: List[Observation]
    labels: List[str]
    walking: np.ndarray
    obs_client: np.ndarray
    obs_step: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.source.spec.n_steps

    @property
    def dt_s(self) -> float:
        return self.source.spec.csi_period_s

    @property
    def last_step_s(self) -> float:
        return (self.n_steps - 1) * self.dt_s


def generate_trace(sizes: Sizes, seed: int) -> Tuple[SimulatedSource, List[Observation]]:
    """Materialise the seeded trace and order its events (timed as set-up)."""
    fleet = FleetSpec(
        n_clients=sizes.n_clients,
        duration_s=sizes.duration_s,
        walking_every=sizes.walking_every,
    )
    source = SimulatedSource(fleet, seed=seed)
    return source, list(source)


def index_trace(source: SimulatedSource, observations: List[Observation]) -> Trace:
    spec = source.spec
    index = {label: i for i, label in enumerate(source.labels)}
    obs_client = np.fromiter((index[o.client] for o in observations), np.int64, len(observations))
    obs_time = np.fromiter((o.time_s for o in observations), float, len(observations))
    return Trace(
        source=source,
        observations=observations,
        labels=list(source.labels),
        walking=np.arange(spec.n_clients) % spec.walking_every == 0,
        obs_client=obs_client,
        obs_step=judging_steps(obs_time, spec.csi_period_s, spec.n_steps),
    )


# ------------------------------------------------------------- the probes


class OfferProbe:
    """Wraps ``StreamRouter.offer`` during a replay: counts offers and
    refusals, and stamps the acceptance time of each CSI observation."""

    def __init__(self, trace: Trace) -> None:
        self.accept_t = np.full((len(trace.labels), trace.n_steps), np.nan)
        self.offered = 0
        self.rejected = 0
        self._index = {label: i for i, label in enumerate(trace.labels)}
        self._inv_dt = 1.0 / trace.dt_s

    def wrap(self, original: Callable[..., bool]) -> Callable[..., bool]:
        probe, index, inv_dt, accept_t = self, self._index, self._inv_dt, self.accept_t

        def offer(router: StreamRouter, observation: Observation) -> bool:
            accepted = original(router, observation)
            probe.offered += 1
            if not accepted:
                probe.rejected += 1
            elif observation.kind == "csi":
                accept_t[index[observation.client], int(observation.time_s * inv_dt + 0.5)] = perf_counter()
            return accepted

        return offer


class HintSink:
    """The hint consumer.

    Stores each hint by (client, step) and, for the first delivery of
    each, the wall time from the acceptance of the client's CSI
    observation for that step to the delivery here.  A hint delivered
    again after a recovery replaces the stored hint, not the latency: the
    consumer already had it, and the recovery is timed on its own.
    """

    def __init__(self) -> None:
        self.duplicates = 0
        self._then: Optional[Callable[[int, float, Any], None]] = None

    def bind(
        self,
        trace: Trace,
        probe: OfferProbe,
        then: Optional[Callable[[int, float, Any], None]] = None,
    ) -> None:
        """Size the tables for ``trace``; ``then`` receives every hint next."""
        n, n_steps = len(trace.labels), trace.n_steps
        self.hints = np.full((n, n_steps), None, dtype=object)
        self.latency_s = np.full((n, n_steps), np.nan)
        self._accept_t = probe.accept_t
        self._index = {label: i for i, label in enumerate(trace.labels)}
        self._inv_dt = 1.0 / trace.dt_s
        self._then = then

    def __call__(self, label: str, time_s: float, estimate: Any) -> None:
        now = perf_counter()
        i = self._index[label]
        s = int(time_s * self._inv_dt + 0.5)
        if self.hints[i, s] is not None:
            self.duplicates += 1
        self.hints[i, s] = estimate
        if self.latency_s[i, s] != self.latency_s[i, s]:  # first delivery (NaN)
            self.latency_s[i, s] = now - self._accept_t[i, s]
        if self._then is not None:
            self._then(i, time_s, estimate)

    def rewind(self, clock_s: float) -> None:
        """Forget hints at or after ``clock_s``: a recovered service
        delivers them again."""
        self.hints[:, int(clock_s * self._inv_dt + 0.5):] = None


# ------------------------------------------------------------ the rounds


@dataclass
class Round:
    """One replay of the trace through a freshly built service."""

    trace: Trace
    setup_s: float
    service: Any
    probe: OfferProbe
    sink: HintSink
    workdir: str
    wall_s: float = 0.0
    #: Benchmark work inside the replay, taken out of ``wall_s``.
    excluded_s: float = 0.0
    recovery_s: List[float] = field(default_factory=list)
    checkpoint_bytes: int = 0
    state: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RoundResult:
    """What a finished round leaves behind for the run's metrics."""

    setup_s: float
    wall_s: float
    n_obs: int
    offered: int
    rejected: int
    attempted: int
    failed: int
    errors: List[str]
    latency_s: np.ndarray
    recovery_s: List[float]
    checkpoint_bytes: int
    handovers: int = 0


class Workload:
    """Set-up, replay and checks of one workload (see module docs)."""

    name = ""
    #: Fewest rounds a run makes, however short its measured time.
    min_rounds = 1
    #: Cold restarts timed after each round (workloads without kills).
    restarts_per_round = 0

    def __init__(self, seed: int, workdir: str, sizes: Optional[Sizes] = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes if sizes is not None else FULL_SIZES[self.name]
        self.fleet_seed, self.input_seed = np.random.SeedSequence(seed).generate_state(2)
        self._rounds = 0

    def prepare(self) -> None:
        """Per-run work outside the rounds (references, schedules)."""

    def setup(self, null_recorder: bool = False) -> Round:
        """Generate the trace and build the service (timed as set-up)."""
        self._rounds += 1
        workdir = os.path.join(self.workdir, f"{self.name}-round{self._rounds}")
        shutil.rmtree(workdir, ignore_errors=True)
        sink = HintSink()
        gc.collect()
        start = perf_counter()
        source, observations = generate_trace(self.sizes, int(self.fleet_seed))
        service, state = self.build(source, workdir, sink, null_recorder)
        setup_s = perf_counter() - start
        trace = index_trace(source, observations)
        probe = OfferProbe(trace)
        sink.bind(trace, probe, state.get("feed"))
        return Round(trace, setup_s, service, probe, sink, workdir, state=state)

    def build(
        self, source: SimulatedSource, workdir: str, sink: HintSink, null_recorder: bool
    ) -> Tuple[Any, Dict[str, Any]]:
        """The service for one round, delivering hints to ``sink``, plus
        the round's own state."""
        raise NotImplementedError

    def replay(self, rnd: Round) -> None:
        raise NotImplementedError

    def finish(self, rnd: Round) -> RoundResult:
        """Check the round, time restarts, and keep only what the run's
        metrics need (the round's service and trace are dropped)."""
        trace, sink, probe = rnd.trace, rnd.sink, rnd.probe
        n_obs = len(trace.observations)
        failed = min(
            n_obs, probe.rejected + failed_observations(sink.hints, trace.obs_client, trace.obs_step)
        )
        errors = all_errors(
            check_accepted(probe.offered, probe.rejected),
            check_hint_counts(sink.hints, sink.duplicates),
            check_ground_truth(sink.hints, trace.walking),
            self.check(rnd),
        )
        self.measure_restarts(rnd)
        shutil.rmtree(rnd.workdir, ignore_errors=True)
        result = RoundResult(
            setup_s=rnd.setup_s,
            wall_s=rnd.wall_s,
            n_obs=n_obs,
            offered=probe.offered,
            rejected=probe.rejected,
            attempted=n_obs,
            failed=failed,
            errors=errors,
            latency_s=sink.latency_s[np.isfinite(sink.latency_s)],
            recovery_s=rnd.recovery_s,
            checkpoint_bytes=rnd.checkpoint_bytes,
        )
        self.tally(rnd, result)
        return result

    def tally(self, rnd: Round, result: RoundResult) -> None:
        """Add workload-specific operations and counts to ``result``."""

    def check(self, rnd: Round) -> List[str]:
        return []

    def measure_restarts(self, rnd: Round) -> None:
        raise NotImplementedError


def _fresh_classifier(source: SimulatedSource) -> BatchedMobilityClassifier:
    return BatchedMobilityClassifier(list(source.labels))


def _service_source(observations: List[Observation], labels: List[str]) -> List[SourceSpec]:
    return [SourceSpec("fleet", lambda: iter(observations), clients=tuple(labels))]


def _newest_artifact(directory: str) -> str:
    return list_artifacts(directory)[-1]


# ---------------------------------------------------------- campus_fleet


def campus_rssi(
    seed: int, n_clients: int, n_aps: int, walking: np.ndarray, duration_s: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The controller's seeded per-epoch ``(epochs, N, A)`` RSSI matrix.

    APs sit on a square grid.  Every client has a home AP at -45 dBm and
    hears the others at -88..-70 dBm, so a static client's home AP is
    clearly strongest.  A walking client fades from its home AP to a
    grid neighbour, linearly over the first three quarters of the trace.
    Returns ``(rssi, home_ap, target_ap)``.
    """
    rng = np.random.default_rng(seed)
    side = int(round(np.sqrt(n_aps)))
    if side * side != n_aps:
        raise ValueError(f"n_aps must be a square, got {n_aps}")
    home = rng.integers(0, n_aps, n_clients)
    row, col = np.divmod(home, side)
    steps = np.array([(-1, 0), (1, 0), (0, -1), (0, 1)])
    target = home.copy()
    for i in np.flatnonzero(walking):
        valid = [
            (row[i] + dr) * side + (col[i] + dc)
            for dr, dc in steps
            if 0 <= row[i] + dr < side and 0 <= col[i] + dc < side
        ]
        target[i] = valid[rng.integers(0, len(valid))]
    n_epochs = int(duration_s) + 1
    others = rng.uniform(-88.0, -70.0, (n_clients, n_aps))
    others[np.arange(n_clients), home] = -45.0
    rssi = others[None, :, :] + rng.normal(0.0, 1.0, (n_epochs, n_clients, n_aps))
    walk = np.minimum(1.0, np.arange(n_epochs) / (0.75 * duration_s))
    w = np.flatnonzero(walking)
    rssi[:, w, home[w]] += -33.0 * walk[:, None]
    rssi[:, w, target[w]] = -78.0 + 33.0 * walk[:, None] + rng.normal(0.0, 1.0, (n_epochs, w.size))
    return rssi, home, target


class ControllerFeed:
    """Feeds every hint to the controller and runs a control epoch at each
    whole second, once all of that step's hints have arrived."""

    def __init__(self, controller: Controller, rssi: np.ndarray, epoch_s: float) -> None:
        self.controller = controller
        self.rssi = rssi
        self.epoch_s = epoch_s
        self.handovers = np.zeros(controller.n_clients, dtype=np.int64)
        self._step_s: Optional[float] = None

    def __call__(self, i: int, time_s: float, estimate: Any) -> None:
        if time_s != self._step_s:
            self.close_step()
            self._step_s = time_s
        self.controller.update_hint(i, estimate)

    def close_step(self) -> None:
        t = self._step_s
        if t is None or t <= 0.0 or t % self.epoch_s:
            return
        controller = self.controller
        controller.observe(t, self.rssi[int(round(t / self.epoch_s))])
        before = controller.association.copy()
        controller.run_epoch(t)
        self.handovers += controller.association != before


class CampusFleet(Workload):
    name = "campus_fleet"
    # About 0.25 s each.
    restarts_per_round = 2

    def prepare(self) -> None:
        sizes = self.sizes
        walking = np.arange(sizes.n_clients) % sizes.walking_every == 0
        self.rssi, self.home_ap, self.target_ap = campus_rssi(
            int(self.input_seed), sizes.n_clients, sizes.n_aps, walking, sizes.duration_s
        )

    def build(
        self, source: SimulatedSource, workdir: str, sink: HintSink, null_recorder: bool
    ) -> Tuple[Any, Dict[str, Any]]:
        spec = source.spec
        controller = Controller(
            spec.n_clients, self.sizes.n_aps, MobilityHintPolicy(), client_labels=source.labels
        )
        resilience = ResilienceConfig(workdir, checkpoint_every_s=self.sizes.checkpoint_every_s)
        service = ResilientService(
            _fresh_classifier(source),
            StreamConfig(dt_s=spec.csi_period_s, horizon_steps=spec.n_steps),
            resilience=resilience,
            on_estimate=sink,
        )
        feed = ControllerFeed(controller, self.rssi, controller.config.epoch_s)
        return service, {"feed": feed, "resilience": resilience}

    def replay(self, rnd: Round) -> None:
        trace = rnd.trace
        rnd.service.run(_service_source(trace.observations, trace.labels), until_s=trace.last_step_s)
        rnd.state["feed"].close_step()

    def check(self, rnd: Round) -> List[str]:
        feed: ControllerFeed = rnd.state["feed"]
        return check_roaming(
            feed.handovers, feed.controller.association, rnd.trace.walking, self.target_ap
        )

    def measure_restarts(self, rnd: Round) -> None:
        resilience = rnd.state["resilience"]
        rnd.checkpoint_bytes = os.path.getsize(_newest_artifact(resilience.checkpoint_dir))
        rnd.service = None  # a restart runs in a fresh process
        for _ in range(self.restarts_per_round):
            gc.collect()
            start = perf_counter()
            ResilientService.recover(resilience)
            rnd.recovery_s.append(perf_counter() - start)

    def tally(self, rnd: Round, result: RoundResult) -> None:
        result.handovers = rnd.state["feed"].controller.totals["handovers"]


# ---------------------------------------------------------- walking_live


class WalkingLive(Workload):
    name = "walking_live"
    # About 12 ms each: enough of them that a round's mean rests on
    # about 0.2 s.
    restarts_per_round = 16

    def __init__(self, seed: int, workdir: str, sizes: Optional[Sizes] = None) -> None:
        super().__init__(seed, workdir, sizes)
        self.reference: Optional[np.ndarray] = None
        #: Replay wall time of the NULL-recorder reference round.
        self.null_wall_s = 0.0

    def build(
        self, source: SimulatedSource, workdir: str, sink: HintSink, null_recorder: bool
    ) -> Tuple[Any, Dict[str, Any]]:
        spec = source.spec
        router = StreamRouter(
            _fresh_classifier(source),
            config=StreamConfig(dt_s=spec.csi_period_s, horizon_steps=spec.n_steps),
            recorder=NULL_RECORDER if null_recorder else TelemetryRecorder(),
            on_estimate=sink,
        )
        return router, {}

    def prepare(self) -> None:
        """Replay the trace once with the NULL recorder: the reference the
        live rounds' hints must equal, and the base of the telemetry
        overhead."""
        rnd = self.setup(null_recorder=True)
        timed_replay(self, rnd)
        self.reference = rnd.sink.hints
        self.null_wall_s = rnd.wall_s
        shutil.rmtree(rnd.workdir, ignore_errors=True)

    def replay(self, rnd: Round) -> None:
        router: StreamRouter = rnd.service
        dt_s = rnd.trace.dt_s
        offer, advance = router.offer, router.advance
        for observation in rnd.trace.observations:
            offer(observation)
            advance(observation.time_s - dt_s)
        advance(rnd.trace.last_step_s)

    def check(self, rnd: Round) -> List[str]:
        if self.reference is None:
            return ["no NULL-recorder reference replay"]
        return check_equal(rnd.sink.hints, self.reference, "the NULL-recorder replay")

    def measure_restarts(self, rnd: Round) -> None:
        os.makedirs(rnd.workdir, exist_ok=True)
        path = os.path.join(rnd.workdir, artifact_name(rnd.service.clock_s))
        save_checkpoint(rnd.service, path)
        rnd.checkpoint_bytes = os.path.getsize(path)
        rnd.service = None  # a restart runs in a fresh process
        for _ in range(self.restarts_per_round):
            gc.collect()
            start = perf_counter()
            load_checkpoint(path)
            rnd.recovery_s.append(perf_counter() - start)


# -------------------------------------------------------- crash_recovery


class ScheduledKill(ServiceKillFault):
    """A kill at a fixed service step that optionally spoils the newest
    checkpoint artifact just before it fires."""

    def __init__(self, at_step: int, checkpoint_dir: str, corruption: Optional[str]) -> None:
        super().__init__(at_step=at_step)
        self.checkpoint_dir = checkpoint_dir
        self.corruption = corruption
        self.spoiled_clock_s: Optional[float] = None

    def fire(self) -> Any:
        if self.corruption is not None:
            newest = _newest_artifact(self.checkpoint_dir)
            CheckpointCorruptionFault(self.corruption).corrupt(newest)
            self.spoiled_clock_s = int(os.path.basename(newest)[8:21]) / 1000.0
        return super().fire()


def kill_schedule(
    seed: int, n_steps: int, n_kills: int, cadence_steps: int
) -> List[Tuple[int, Optional[str]]]:
    """``n_kills`` seeded, strictly increasing kill steps.

    Every kill lands one step before a checkpoint would have been written
    (steps ``s`` with ``s % cadence_steps == cadence_steps - 1``, from
    step 3 on), so each recovery replays the same number of steps
    whatever the seed; the seed picks which of those steps are used.
    Every fourth kill spoils the newest artifact first, cycling through
    the corruption modes.
    """
    candidates = [
        s for s in range(3, n_steps) if s % cadence_steps == cadence_steps - 1
    ]
    if len(candidates) < n_kills:
        raise ValueError(f"{n_kills} kills do not fit in {n_steps} steps")
    rng = np.random.default_rng(seed)
    steps = sorted(int(s) for s in rng.choice(candidates, size=n_kills, replace=False))
    return [
        (step, CORRUPTION_MODES[(k // 4) % len(CORRUPTION_MODES)] if k % 4 == 3 else None)
        for k, step in enumerate(steps)
    ]


def batch_reference(source: SimulatedSource) -> np.ndarray:
    """Hints of a :class:`BatchedSensingSession` over the whole trace on
    one long grid, as a ``(clients, steps)`` table."""
    spec = source.spec
    csi_by_client, tof_times, tof_readings = source.batch_inputs()
    engine = SimulationEngine(TimeGrid.regular(0.0, spec.csi_period_s, spec.n_steps))
    engine.add(
        BatchedSensingSession(_fresh_classifier(source), csi_by_client, tof_times, tof_readings)
    )
    results = engine.run()
    table = np.full((spec.n_clients, spec.n_steps), None, dtype=object)
    for i, label in enumerate(source.labels):
        for estimate in results[label]:
            table[i, int(estimate.time_s / spec.csi_period_s + 0.5)] = estimate
    return table


class CrashRecovery(Workload):
    name = "crash_recovery"
    # Twelve kills a round, so every run has at least 24.
    min_rounds = 2

    def prepare(self) -> None:
        source, _ = generate_trace(self.sizes, int(self.fleet_seed))
        self.reference = batch_reference(source)
        cadence_steps = int(round(self.sizes.checkpoint_every_s / source.spec.csi_period_s))
        self.schedule = kill_schedule(
            int(self.input_seed), source.spec.n_steps, self.sizes.n_kills, cadence_steps
        )

    def build(
        self, source: SimulatedSource, workdir: str, sink: HintSink, null_recorder: bool
    ) -> Tuple[Any, Dict[str, Any]]:
        spec = source.spec
        resilience = ResilienceConfig(workdir, checkpoint_every_s=self.sizes.checkpoint_every_s)
        kills = [ScheduledKill(step, workdir, mode) for step, mode in self.schedule]
        service = ResilientService(
            _fresh_classifier(source),
            StreamConfig(dt_s=spec.csi_period_s, horizon_steps=self.sizes.horizon_steps),
            resilience=resilience,
            on_estimate=sink,
            kill=kills[0] if kills else None,
        )
        return service, {"kills": kills, "resilience": resilience}

    def replay(self, rnd: Round) -> None:
        trace, state = rnd.trace, rnd.state
        kills: List[ScheduledKill] = state["kills"]
        sources = _service_source(trace.observations, trace.labels)
        service: Any = rnd.service
        rnd.service = None
        fired = unrejected = recover_failures = 0
        while True:
            try:
                service.run(sources, until_s=trace.last_step_s)
                break
            except ServiceKilled:
                pass
            # A killed process takes its heap with it.  Here the dead
            # service is dropped and its garbage collected before the
            # recovery clock starts, as a fresh process would start clean;
            # that collection is the benchmark's, not service time.
            service = None
            collect_start = perf_counter()
            gc.collect()
            start = perf_counter()
            rnd.excluded_s += start - collect_start
            kill = kills[fired]
            fired += 1
            recover = functools.partial(
                ResilientService.recover,
                state["resilience"],
                on_estimate=rnd.sink,
                kill=kills[fired] if fired < len(kills) else None,
            )
            try:
                service = recover()
            except ValueError:
                # A failed operation.  As an operator would, remove the
                # artifact recovery choked on and recover again; a
                # second failure ends the run.
                recover_failures += 1
                os.remove(_newest_artifact(state["resilience"].checkpoint_dir))
                service = recover()
            else:
                rnd.recovery_s.append(perf_counter() - start)
            if kill.spoiled_clock_s is not None and service.clock_s >= kill.spoiled_clock_s:
                unrejected += 1
            rnd.sink.rewind(service.clock_s)
        state.update(fired=fired, unrejected=unrejected, recover_failures=recover_failures)

    def tally(self, rnd: Round, result: RoundResult) -> None:
        # Each recovery is an operation too; it fails if recover raises.
        result.attempted += len(rnd.state["kills"])
        result.failed += rnd.state["recover_failures"]

    def check(self, rnd: Round) -> List[str]:
        state = rnd.state
        return all_errors(
            check_recoveries(state["fired"], len(state["kills"]), state["unrejected"]),
            check_equal(rnd.sink.hints, self.reference, "the batch reference"),
        )

    def measure_restarts(self, rnd: Round) -> None:
        rnd.checkpoint_bytes = os.path.getsize(
            _newest_artifact(rnd.state["resilience"].checkpoint_dir)
        )


WORKLOADS = {cls.name: cls for cls in (CampusFleet, WalkingLive, CrashRecovery)}


def tiny(name: str, seed: int, workdir: str) -> Workload:
    """A seconds-scale instance of workload ``name`` (smoke tests)."""
    return WORKLOADS[name](seed, workdir, TINY_SIZES[name])


#: The benchmark's own code that runs inside the program's spans, timed
#: as ``bench.*`` spans in a traced round so that it stays out of the
#: program's self times.
BENCH_SPANS = (
    (HintSink, "__call__", "bench.hint_sink"),
    (ControllerFeed, "__call__", "bench.controller_feed"),
    (ScheduledKill, "fire", "bench.kill"),
)


def timed_replay(workload: Workload, rnd: Round, tracer: Optional[Tracer] = None) -> None:
    """Replay one round with the offer probe (and ``tracer``) installed;
    garbage is collected first and the collector stays enabled."""
    gc.collect()

    def probe_wrap(offer: Callable[..., bool]) -> Callable[..., bool]:
        probed = rnd.probe.wrap(offer)
        return probed if tracer is None else tracer.wrap(probed, "bench.offer_probe")

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(traced(tracer))
            for owner, attribute, name in BENCH_SPANS:
                stack.enter_context(
                    patched(owner, attribute, lambda fn, n=name: tracer.wrap(fn, n))
                )
        stack.enter_context(patched(StreamRouter, "offer", probe_wrap))
        start = perf_counter()
        workload.replay(rnd)
        rnd.wall_s = perf_counter() - start - rnd.excluded_s

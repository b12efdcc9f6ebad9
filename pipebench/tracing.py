"""Span tracing of the pipeline from outside the program.

For the duration of a traced round, :func:`traced` swaps a timing
wrapper in for each layer-boundary function listed in
:func:`boundaries` and restores the originals afterwards; the program
itself is never edited.  Each wrapper opens a span on entry and closes it
on exit, so a span knows its parent (the innermost open span) and its
self time (its duration minus the time its child spans cover).

Spans stay in memory and are written out once, when the run ends.
Calls made once per observation (``stream.offer``, a zero-step
``stream.advance``, ``resilience.advance``, ``controller.update_hint``
and every live-recorder call) would swamp the store, so a span of those
names that encloses no stored span is folded into a per-(name, parent)
aggregate of count, total and self time instead of being kept.

A wrapper's own work (the call into it, its span bookkeeping, its
counting hooks) falls partly outside the span it times, where it would
land in the enclosing span's self time, and partly inside, between the
span's two clock reads.  :func:`calibrate` times an empty wrapped call
before each traced round.  Every span hands its wrapper's outside cost
to its parent along with its duration, and counts its own duration less
the inside cost, so busy and self times hold the program's work and not
the tracer's.  The benchmark's own code that runs inside the program's
spans (the offer probe, the hint sink, the controller feed, the
scheduled kill) gets ``bench.*`` spans of its own for the same reason.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

#: Span names folded into aggregates unless they enclose a stored span.
AGGREGATED_PREFIXES = (
    "stream.offer",
    "stream.advance",
    "resilience.advance",
    "controller.update_hint",
    "telemetry.",
    "bench.",
)

#: Live-recorder entry points timed as the telemetry layer.
RECORDER_METHODS = ("count", "gauge", "observe", "event", "phase_time", "channel_eval")

Hook = Callable[["Tracer", Tuple[Any, ...], Any], None]

#: A wrapper's kind: ``(has a before-hook, has an after-hook)``.
Kind = Tuple[bool, bool]
KINDS: Tuple[Kind, ...] = ((False, False), (True, False), (False, True), (True, True))


class Calibration(NamedTuple):
    """Seconds the tracer's own work adds per span (see :func:`calibrate`)."""

    #: Outside the span, by wrapper kind: charged to the parent.
    outside_s: Dict[Kind, float]
    #: Inside the span, between its two clock reads.
    inside_s: float


NO_COST = Calibration({kind: 0.0 for kind in KINDS}, 0.0)


class Tracer:
    """In-memory span store plus per-name totals and counters."""

    def __init__(self, calibration: Calibration = NO_COST) -> None:
        #: The tracer's per-span cost, taken off the spans it records.
        self.calibration = calibration
        self._inside_s = calibration.inside_s
        #: Every calibration :func:`traced` has made, one per round.
        self.calibrations: List[Calibration] = []
        #: Stored spans: ``(id, name, start_s, end_s, parent_id)``.
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        #: ``(name, parent_name) -> [count, total_s, self_s]``.
        self.aggregates: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: ``name -> [calls, busy_s, self_s]`` over every span, stored or not.
        self.totals: Dict[str, List[float]] = {}
        #: Counts taken at the boundaries (samples, estimates, bytes, ...).
        self.counters: Dict[str, float] = {}
        #: Open spans: ``[id, name, start_s, child_s, has_stored_child, cost_s]``.
        self._stack: List[List[Any]] = []
        self._next_id = 0
        #: The router whose ``advance`` is running (read by hooks).
        self.router: Any = None

    # ------------------------------------------------------------- spans

    def open(self, name: str, cost_s: float = 0.0) -> None:
        """Open a span; ``cost_s`` is its wrapper's cost outside it, which
        the parent counts as child time when the span closes."""
        self._stack.append([self._next_id, name, perf_counter(), 0.0, False, cost_s])
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter()
        span_id, name, start, child, stored_child, cost_s = self._stack.pop()
        duration = end - start - self._inside_s
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration + self._inside_s + cost_s
        if not stored_child and name.startswith(AGGREGATED_PREFIXES):
            key = (name, parent[1] if parent is not None else None)
            agg = self.aggregates.get(key)
            if agg is None:
                agg = self.aggregates[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child
            return
        self.spans.append(
            (span_id, name, start, end, parent[0] if parent is not None else None)
        )
        if parent is not None:
            parent[4] = True

    def run_hook(self, hook: Hook, args: Tuple[Any, ...], result: Any) -> None:
        """Run a counting hook; its time is kept out of the enclosing
        span's self time, since it is the tracer's work, not the layer's."""
        start = perf_counter()
        hook(self, args, result)
        if self._stack:
            self._stack[-1][3] += perf_counter() - start

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> Callable[..., Any]:
        """``fn``, timed as span ``name``; ``before`` and ``after`` are
        counting hooks run around it, outside the span."""
        cost_s = self.calibration.outside_s[(before is not None, after is not None)]
        open_span, close_span, run_hook = self.open, self.close, self.run_hook

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                run_hook(before, args, None)
            open_span(name, cost_s)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span()
            if after is not None:
                run_hook(after, args, result)
            return result

        return wrapper

    def recalibrate(self) -> None:
        """Measure the tracer's per-span cost now; wrappers made after
        this use it."""
        self.calibration = calibrate()
        self._inside_s = self.calibration.inside_s
        self.calibrations.append(self.calibration)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    # ----------------------------------------------------------- queries

    def calls(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[0])

    def busy_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def prefix_totals(self, prefix: str) -> Tuple[float, float]:
        """``(calls, busy_s)`` summed over every span name with ``prefix``."""
        calls = busy = 0.0
        for name, (count, total, _) in self.totals.items():
            if name.startswith(prefix):
                calls += count
                busy += total
        return calls, busy

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        """Write every stored span and aggregate as one JSON document."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        document = {
            **extra,
            "span_cost_s": [
                {
                    "inside": calibration.inside_s,
                    **{
                        f"outside,before={b},after={a}": cost
                        for (b, a), cost in calibration.outside_s.items()
                    },
                }
                for calibration in self.calibrations
            ],
            "span_fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "aggregates": [
                {"name": name, "parent": parent, "count": c, "total_s": t, "self_s": s}
                for (name, parent), (c, t, s) in sorted(
                    self.aggregates.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            ],
            "totals": {
                name: {"calls": c, "busy_s": b, "self_s": s}
                for name, (c, b, s) in sorted(self.totals.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


# ------------------------------------------------------------------ hooks


def _note_router(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    """Before ``StreamRouter.advance``: remember the router and, when the
    call is about to run a step, the backlog the step will drain."""
    router, until_s = args[0], args[1]
    tracer.router = router
    stepper = router.stepper
    if not stepper.done and float(router.engine.grid.times[stepper.next_index]) <= until_s:
        tracer.peak("stream.backlog.peak", float(router.backlog))


def _count_useful_advance(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    if result:
        tracer.add("stream.advance.useful", 1.0)


def _count_tof_samples(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    chunks = args[1]
    tracer.add("core.push_tof.samples", float(sum(len(c[0]) for c in chunks if c is not None)))


def _count_estimates(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.add("core.push_csi.estimates", float(sum(e is not None for e in result)))


def _count_checkpoint_bytes(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.add("resilience.checkpoint.bytes", float(os.path.getsize(result)))


def _count_rejected(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.add("resilience.rejected_artifacts", float(len(result[2])))


Boundary = Tuple[Any, str, str, Optional[Hook], Optional[Hook]]


def boundaries() -> List[Boundary]:
    """Every traced boundary: ``(owner, attribute, span, before, after)``."""
    import repro.resilience.service as service_module
    from repro.controller.controller import Controller
    from repro.core.batched import BatchedMobilityClassifier
    from repro.resilience.checkpoints import CheckpointManager
    from repro.resilience.service import ResilientService
    from repro.sim.engine import EngineStepper
    from repro.stream.router import StreamRouter
    from repro.telemetry.recorder import TelemetryRecorder

    table: List[Boundary] = [
        (StreamRouter, "offer", "stream.offer", None, None),
        (StreamRouter, "advance", "stream.advance", _note_router, _count_useful_advance),
        (EngineStepper, "step", "sim.step", None, None),
        (BatchedMobilityClassifier, "push_tof", "core.push_tof", None, _count_tof_samples),
        (BatchedMobilityClassifier, "push_csi", "core.push_csi", None, _count_estimates),
        (Controller, "update_hint", "controller.update_hint", None, None),
        (Controller, "observe", "controller.observe", None, None),
        (Controller, "run_epoch", "controller.run_epoch", None, None),
        (ResilientService, "run", "resilience.run", None, None),
        (ResilientService, "advance", "resilience.advance", None, None),
        (ResilientService, "recover", "resilience.recover", None, None),
        # The rollover has no public entry point; it is timed at the
        # method the service calls when its grid segment runs out.
        (ResilientService, "_rollover", "resilience.rollover", None, None),
        (CheckpointManager, "save", "resilience.checkpoint", None, _count_checkpoint_bytes),
        (service_module, "scan_checkpoints", "resilience.scan", None, _count_rejected),
    ]
    for method in RECORDER_METHODS:
        table.append((TelemetryRecorder, method, f"telemetry.{method}", None, None))
    return table


def _noop(*args: Any) -> None:
    return None


def _noop_hook(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    return None


def _loop(tracer: Tracer, fn: Optional[Callable[[], None]], calls: int) -> Tuple[float, float]:
    """Run ``calls`` iterations of a loop calling ``fn`` (or nothing) in a
    span of its own; return that span's self time and its children's busy
    time."""
    self_before = tracer.self_s("calibrate")
    child_before = tracer.busy_s("bench.calibrate")
    tracer.open("calibrate")
    if fn is None:
        for _ in range(calls):
            pass
    else:
        for _ in range(calls):
            fn()
    tracer.close()
    return (
        tracer.self_s("calibrate") - self_before,
        tracer.busy_s("bench.calibrate") - child_before,
    )


def calibrate(calls: int = 5000, repeats: int = 7) -> Calibration:
    """Time what the tracer's wrappers add per span, on an empty function.

    A parent span runs ``calls`` calls of a wrapped empty function and,
    just before, the same loop without the call.  For each wrapper kind
    (empty hooks where the kind has them), the outside cost is the
    difference of the parent's two self times per call.  The inside cost
    is the wrapped call's own duration less that of a bare call of the
    empty function.  Each figure is the median of ``repeats`` paired
    tries, so a change in the machine's speed between tries cancels out.
    """
    outside: Dict[Kind, float] = {}
    inside: List[float] = []
    for kind in KINDS:
        tracer = Tracer()
        wrapped = tracer.wrap(
            _noop,
            "bench.calibrate",
            _noop_hook if kind[0] else None,
            _noop_hook if kind[1] else None,
        )
        diffs = []
        for _ in range(repeats):
            base = _loop(tracer, None, calls)[0]
            parent_s, child_s = _loop(tracer, wrapped, calls)
            diffs.append(parent_s - base)
            if kind == (False, False):
                bare = _loop(tracer, _noop, calls)[0]
                inside.append(child_s - (bare - base))
        outside[kind] = max(0.0, statistics.median(diffs) / calls)
    return Calibration(outside, max(0.0, statistics.median(inside) / calls))


@contextlib.contextmanager
def patched(owner: Any, attribute: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> Iterator[None]:
    """Replace ``owner.attribute`` by ``make(original)`` inside the block.

    Class methods keep their descriptor: the wrapper sees the class as
    its first argument, exactly like the original.
    """
    raw = owner.__dict__[attribute]
    if isinstance(raw, classmethod):
        replacement: Any = classmethod(make(raw.__func__))
    else:
        replacement = make(raw)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, raw)


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Time every boundary of :func:`boundaries` into ``tracer``
    (calibrating its wrappers first)."""
    tracer.recalibrate()
    with contextlib.ExitStack() as stack:
        for owner, attribute, name, before, after in boundaries():
            stack.enter_context(
                patched(
                    owner,
                    attribute,
                    lambda fn, n=name, b=before, a=after: tracer.wrap(fn, n, b, a),
                )
            )
        yield tracer

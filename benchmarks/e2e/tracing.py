"""Outside-in tracer: spans around the public methods of every layer.

The benchmark owns its tracing.  :class:`Tracer` replaces the public methods
listed in :data:`_SPAN_TARGETS` with timing wrappers for the duration of one
traced replay and puts the originals back afterwards; nothing under ``src/``
knows it is being traced.  Every span records its name, start, end, the span
that caused it (``parent``, an index into the span list) and the index of the
``ClusterScheduler.step`` call it happened in (``step``, -1 outside a step) —
the identifier all spans of one scheduling event share.  Spans stay in memory
until the replay ends.  Methods called ~10^5 times per replay get counters,
not spans.

:func:`summarize` turns the span list into the per-layer metrics: ``_s``
metrics are busy seconds inside the named public call (outermost call only,
so a session that delegates to an inner session is not counted twice),
``_self_s`` metrics are self time (the span minus the time its child spans
cover), counts are exact.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from collections.abc import Sized
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.placement import Placer
from repro.core.aggregation import AggregatedProblem
from repro.core.allocation_engine import AllocationEngine, PairThroughputCache
from repro.core.policy import Policy
from repro.core.session import PolicySession
from repro.scheduler.mechanism import RoundScheduler
from repro.scheduler.priorities import PriorityTracker
from repro.scheduler.service import ClusterScheduler
from repro.solver.fractional import FractionalProgram
from repro.solver.lp import LinearProgram
from repro.workloads.throughputs import ThroughputOracle

#: (name, start, end, parent index, step index, gauge value)
Span = Tuple[str, float, float, int, int, Any]
_Gauge = Callable[[Tuple[Any, ...], Any], Any]

STEP = "scheduler.service.step"
MATRIX = "core.allocation_engine.matrix"
TRACE_GEN = "workloads.trace_gen"
LP_EDIT = "solver.lp.edit"


def _sized(value: Any) -> int:
    return len(value) if isinstance(value, Sized) else 0


#: Span name -> (class, method, gauge).  A gauge reads one exact count off
#: the call's arguments or result, after the span has ended.
_SPAN_TARGETS: Dict[str, Tuple[type, str, Optional[_Gauge]]] = {
    "core.allocation_engine.add_job": (AllocationEngine, "add_job", None),
    "core.allocation_engine.remove_job": (AllocationEngine, "remove_job", None),
    MATRIX: (AllocationEngine, "matrix", None),  # gauge: Tracer._matrix_gauge
    "core.allocation_engine.drain_deltas": (
        AllocationEngine, "drain_deltas", lambda args, deltas: len(deltas)),
    "core.aggregation.build": (
        AggregatedProblem, "build",
        lambda args, view: (len(view.groups), len(view.base.jobs))),
    "core.aggregation.expand": (AggregatedProblem, "expand", None),
    "core.session.create": (Policy, "session", None),
    "core.session.apply": (PolicySession, "apply", lambda args, _: _sized(args[1])),
    "core.session.solve": (PolicySession, "solve", None),
    "solver.lp.solve": (
        LinearProgram, "solve",
        lambda args, _: (args[0].num_constraints(), args[0].num_variables())),
    "solver.fractional.solve": (FractionalProgram, "solve", None),
    "scheduler.mechanism.schedule_round": (
        RoundScheduler, "schedule_round", lambda args, scheduled: len(scheduled)),
    "scheduler.mechanism.validate_round": (RoundScheduler, "validate_round", None),
    "scheduler.priorities.priorities": (PriorityTracker, "priorities", None),
    "cluster.placement.place": (Placer, "place", lambda args, _: len(args[1])),
    STEP: (ClusterScheduler, "step", None),
    "scheduler.service.submit": (ClusterScheduler, "submit", None),
    "scheduler.service.cancel": (ClusterScheduler, "cancel", None),
    "scheduler.service.resize": (ClusterScheduler, "resize", None),
    "scheduler.service.swap_policy": (ClusterScheduler, "swap_policy", None),
    "scheduler.service.snapshot": (
        ClusterScheduler, "snapshot", lambda args, snap: len(snap.session_history)),
    "scheduler.service.restore": (ClusterScheduler, "restore", None),
    "scheduler.service.result": (ClusterScheduler, "result", None),
}

#: Per-item methods: counted, never timed.
_COUNTER_TARGETS: Dict[str, Tuple[type, str]] = {
    "workloads.oracle_calls": (ThroughputOracle, "throughput"),
    "scheduler.priorities.record_time_calls": (PriorityTracker, "record_time"),
}

_LP_EDIT_PREFIXES = ("add_", "set_", "remove_")


def _lp_mutators() -> List[str]:
    return sorted(
        name
        for name, member in vars(LinearProgram).items()
        if name.startswith(_LP_EDIT_PREFIXES) and callable(member)
    )


class Tracer:
    """Records spans and counters while installed (use as a context manager)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Counter[str] = Counter()
        #: Colocation caches seen by ``AllocationEngine.matrix``; holding them
        #: keeps ids unique and lets :func:`summarize` read hits and misses.
        self.caches: Dict[int, PairThroughputCache] = {}
        self._stack: List[int] = []
        self._step = -1
        self._steps_seen = 0
        self._originals: List[Tuple[type, str, Any]] = []

    # -- recording -------------------------------------------------------------
    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)  # children need the index before the span ends
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float, value: Any) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self._step, value)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code (e.g. trace generation)."""
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, perf_counter(), None)

    def _span_wrapper(
        self, name: str, func: Callable[..., Any], gauge: Optional[_Gauge]
    ) -> Callable[..., Any]:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self._open()
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self._close(index, name, start, perf_counter(), None)
                raise
            end = perf_counter()
            self._close(index, name, start, end, gauge(args, result) if gauge else None)
            return result

        return wrapper

    def _step_wrapper(self, func: Callable[..., Any]) -> Callable[..., Any]:
        spanned = self._span_wrapper(STEP, func, None)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._step = self._steps_seen
            self._steps_seen += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                self._step = -1

        return wrapper

    def _matrix_gauge(self, args: Tuple[Any, ...], matrix: Any) -> int:
        """Pair rows of the matrix; also remembers the engine's colocation cache."""
        cache = args[0].colocation_cache
        if cache is not None:
            self.caches[id(cache)] = cache
        return matrix.num_rows() - len(matrix.job_ids)

    def _counter_wrapper(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counters[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------
    def _replace(
        self, owner: type, attribute: str, wrap: Callable[[Callable[..., Any]], Any]
    ) -> None:
        original = vars(owner)[attribute]
        self._originals.append((owner, attribute, original))
        if isinstance(original, classmethod):
            setattr(owner, attribute, classmethod(wrap(original.__func__)))
        else:
            setattr(owner, attribute, wrap(original))

    def install(self) -> None:
        for name, (owner, attribute, gauge) in _SPAN_TARGETS.items():
            if name == STEP:
                self._replace(owner, attribute, self._step_wrapper)
                continue
            if name == MATRIX:
                gauge = self._matrix_gauge
            self._replace(
                owner,
                attribute,
                lambda func, name=name, gauge=gauge: self._span_wrapper(name, func, gauge),
            )
        for attribute in _lp_mutators():
            self._replace(
                LinearProgram, attribute, lambda func: self._span_wrapper(LP_EDIT, func, None)
            )
        for name, (owner, attribute) in _COUNTER_TARGETS.items():
            self._replace(
                owner, attribute, lambda func, name=name: self._counter_wrapper(name, func)
            )

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def write_jsonl(self, path: Path) -> None:
        """One span per line; ``start``/``end`` in seconds from the first span."""
        spans = self.finished_spans()
        epoch = spans[0][1] if spans else 0.0
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, step, value) in enumerate(spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start - epoch,
                    "end": end - epoch,
                    "parent": parent,
                    "step": step,
                    "value": value,
                }
                handle.write(json.dumps(record) + "\n")


def wrapped_attributes() -> List[Tuple[type, str]]:
    """Every (class, attribute) a :class:`Tracer` replaces while installed."""
    targets = [(owner, attribute) for owner, attribute, _ in _SPAN_TARGETS.values()]
    targets += [(LinearProgram, attribute) for attribute in _lp_mutators()]
    targets += list(_COUNTER_TARGETS.values())
    return targets


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def summarize(tracer: Tracer, reallocs: int) -> Dict[str, float]:
    """Per-layer metrics of one traced replay (``bench.*`` are added by the caller).

    Layer work is summed over spans inside a ``step`` (``step >= 0``), so the
    benchmark's own checkpoint probe — a ``restore`` replays session history
    through the same layers — does not inflate the drain's numbers.  The
    service's control calls and trace generation are summed wherever they ran.
    """
    spans = tracer.finished_spans()
    duration = [end - start for _, start, end, _, _, _ in spans]
    self_time = list(duration)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            self_time[span[3]] -= duration[index]

    def outermost(index: int) -> bool:
        name, parent = spans[index][0], spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    def select(name: str, in_step: bool = True) -> List[int]:
        return [
            index
            for index, span in enumerate(spans)
            if span[0] == name and (span[4] >= 0 or not in_step) and outermost(index)
        ]

    def busy(name: str, in_step: bool = True) -> float:
        return sum(duration[index] for index in select(name, in_step))

    def values(name: str, in_step: bool = True) -> List[Any]:
        return [spans[index][5] for index in select(name, in_step)]

    def self_seconds(name: str) -> float:
        return sum(
            self_time[index] for index, span in enumerate(spans) if span[0] == name and span[4] >= 0
        )

    builds = values("core.aggregation.build")
    lp_solves = len(select("solver.lp.solve"))
    # A solve that raised (an infeasible bisection probe) has no shape.
    lp_shapes = [shape for shape in values("solver.lp.solve") if shape is not None]
    scheduled = values("scheduler.mechanism.schedule_round")
    snapshots = values("scheduler.service.snapshot", in_step=False)
    hits = sum(cache.hits for cache in tracer.caches.values())
    misses = sum(cache.misses for cache in tracer.caches.values())
    control_events = sum(
        len(select(f"scheduler.service.{kind}")) for kind in ("cancel", "resize", "swap_policy")
    )
    metrics: Dict[str, float] = {
        "workloads.trace_gen_s": busy(TRACE_GEN, in_step=False),
        "workloads.oracle_calls": tracer.counters["workloads.oracle_calls"],
        "core.allocation_engine.add_job_s": busy("core.allocation_engine.add_job"),
        "core.allocation_engine.remove_job_s": busy("core.allocation_engine.remove_job"),
        "core.allocation_engine.matrix_s": busy(MATRIX),
        "core.allocation_engine.drain_deltas_s": busy("core.allocation_engine.drain_deltas"),
        "core.allocation_engine.deltas": sum(values("core.allocation_engine.drain_deltas")),
        "core.allocation_engine.pair_rows_max": max(
            values(MATRIX), default=0
        ),
        "core.allocation_engine.colocation_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "core.aggregation.build_s": busy("core.aggregation.build"),
        "core.aggregation.expand_s": busy("core.aggregation.expand"),
        "core.aggregation.groups_mean": _mean([groups for groups, _ in builds]),
        "core.aggregation.rows_per_job": (
            sum(groups for groups, _ in builds) / sum(jobs for _, jobs in builds)
            if builds
            else 0.0
        ),
        "core.session.create_s": busy("core.session.create"),
        "core.session.creates": len(select("core.session.create")),
        "core.session.apply_s": busy("core.session.apply"),
        "core.session.deltas_applied": sum(values("core.session.apply")),
        "core.session.solve_self_s": self_seconds("core.session.solve"),
        "core.session.solves": len(select("core.session.solve")),
        "solver.lp.solve_s": busy("solver.lp.solve"),
        "solver.lp.solves": lp_solves,
        "solver.lp.solves_per_realloc": lp_solves / reallocs if reallocs else 0.0,
        "solver.lp.edit_s": busy(LP_EDIT),
        "solver.lp.edits": sum(1 for span in spans if span[0] == LP_EDIT and span[4] >= 0),
        "solver.lp.rows_mean": _mean([rows for rows, _ in lp_shapes]),
        "solver.lp.cols_mean": _mean([cols for _, cols in lp_shapes]),
        "solver.fractional.solve_s": busy("solver.fractional.solve"),
        "solver.fractional.solves": len(select("solver.fractional.solve")),
        "scheduler.mechanism.schedule_round_s": busy("scheduler.mechanism.schedule_round"),
        "scheduler.mechanism.validate_round_s": busy("scheduler.mechanism.validate_round"),
        "scheduler.mechanism.rounds": len(scheduled),
        "scheduler.mechanism.scheduled_per_round_mean": _mean(scheduled),
        "scheduler.priorities.priorities_s": busy("scheduler.priorities.priorities"),
        "scheduler.priorities.record_time_calls": tracer.counters[
            "scheduler.priorities.record_time_calls"
        ],
        "cluster.placement.place_s": busy("cluster.placement.place"),
        "cluster.placement.requests": sum(values("cluster.placement.place")),
        "scheduler.service.step_self_s": self_seconds(STEP),
        "scheduler.service.steps": len(select(STEP)),
        "scheduler.service.reallocs": reallocs,
        "scheduler.service.control_events": control_events,
        "scheduler.service.session_history_len": max(snapshots, default=0),
    }
    for call in ("submit", "cancel", "resize", "swap_policy", "result", "snapshot", "restore"):
        metrics[f"scheduler.service.{call}_s"] = busy(f"scheduler.service.{call}", in_step=False)
    return metrics

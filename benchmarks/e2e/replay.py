"""One replay of one workload: the benchmark's child process.

``run.py`` starts this file once per replay, so set-up time and peak RSS are
facts about one replay and no oracle or colocation cache outlives it.  The
replay is a closed loop of one client: ``scheduler.step()`` is called
back-to-back on a ``VirtualClock``, so host time measures the program, never
a sleep.  The last line printed is ``E2E_RESULT`` followed by one JSON object
(HiGHS writes progress lines to the same stdout, hence the marker).

Kinds of replay:

* ``timed`` — untraced drain; the only source of end-to-end timings.
* ``checkpoint`` — untimed drain with ``snapshot()`` timed at evenly spaced
  steps, then ``restore()`` of the midpoint snapshot timed on fresh
  schedulers; one restored twin is drained and must finish exactly like the
  uninterrupted run.
* ``traced`` — drain under :class:`tracing.Tracer`; the only source of
  per-layer numbers.
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()  # before the heavy imports: set-up pays for them

import argparse
import json
import resource
import statistics
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from repro.scheduler.metrics import SimulationResult
from repro.workloads import ThroughputOracle

import tracing
import workloads

RESULT_MARKER = "E2E_RESULT "
KINDS = ("timed", "checkpoint", "traced")
#: Checkpoint replay: snapshots at k/6 of the run (k = 1..5), each repeated.
SNAPSHOT_POINTS = 5
SNAPSHOT_REPEATS = 21
#: Checkpoint replay: restores of the midpoint snapshot - at least MIN_RESTORES,
#: then more while they have taken less than RESTORE_BUDGET_S, up to MAX_RESTORES.
MIN_RESTORES, MAX_RESTORES, RESTORE_BUDGET_S = 3, 9, 2.0
#: Wall seconds of drain between two calibration probes.
PROBE_INTERVAL_S = 0.25
SETUP_PROBES = 3
#: What one probe takes on the reference box at its usual speed; timings are
#: scaled to a machine on which it takes exactly this long.
REFERENCE_PROBE_MS = 12.0


class Calibrator:
    """A fixed ~12 ms probe of machine speed: Python loop, numpy reduction, HiGHS LP.

    The same work on every machine and commit, touching none of the code
    under test.  The host this benchmark runs on changes speed by 20-30 % for
    seconds to minutes at a time, so every replay probes the machine before,
    during and after each thing it times and reports the timing twice: as
    measured (``raw``) and scaled to the reference machine by the probes taken
    beside it (``ref``), which also makes other machines' numbers comparable.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.uniform(0.1, 1.0, size=(100, 100))
        self._limits = self._matrix.sum(axis=1) / 2.0
        self._costs = -rng.uniform(0.1, 1.0, size=100)
        self._data = rng.uniform(size=200_000)
        self()  # the first HiGHS call pays for lazy imports

    def __call__(self) -> float:
        """Milliseconds one probe took."""
        start = perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        reduced = float(np.sqrt(self._data).sum())
        solution = linprog(
            self._costs, A_ub=self._matrix, b_ub=self._limits, bounds=(0.0, 1.0), method="highs"
        )
        elapsed = perf_counter() - start
        if not solution.success or total <= 0 or reduced <= 0:
            raise RuntimeError("calibration probe failed")
        return elapsed * 1e3


def reference_factor(probes_ms: Sequence[float]) -> float:
    """What scales a timing taken beside ``probes_ms`` to the reference machine."""
    return REFERENCE_PROBE_MS / statistics.median(probes_ms)


class Timings:
    """Timings as measured (``raw``) and as they would read on the reference machine (``ref``)."""

    def __init__(self) -> None:
        self.raw: Dict[str, List[float]] = defaultdict(list)
        self.ref: Dict[str, List[float]] = defaultdict(list)

    def add(self, name: str, values: Sequence[float], probes_ms: Sequence[float]) -> None:
        """Record ``values`` (any time unit), scaled by the probes taken beside them."""
        factor = reference_factor(probes_ms)
        self.raw[name] += values
        self.ref[name] += [value * factor for value in values]


def logical_outcome(result: SimulationResult, steps: int) -> Dict[str, Any]:
    """The seed-determined outcome of a replay; must repeat exactly."""
    records = result.records.values()
    return {
        "steps": steps,
        "reallocs": result.num_policy_recomputations,
        "completed": sum(1 for record in records if record.completed),
        "cancelled": sum(1 for record in records if record.cancelled),
        "avg_jct_hours": float(result.average_jct_hours()),
        "makespan_hours": float(result.makespan_hours()),
        "total_cost_dollars": float(result.total_cost_dollars),
        "utilization": float(result.utilization()),
        "completion_times": {
            str(job_id): record.completion_time for job_id, record in result.records.items()
        },
    }


def _snapshot_plan(kind: str, total_steps: Optional[int]) -> Dict[int, int]:
    """Step index -> number of ``snapshot()`` calls to time just before that step."""
    if kind == "timed":
        return {}
    if total_steps is None:
        raise ValueError(f"a {kind} replay needs total_steps from an earlier timed replay")
    if kind == "traced":
        return {total_steps // 2: 1}
    # Point 3 of 5 is the midpoint, total_steps // 2, whose snapshot is restored.
    return {
        total_steps * point // (SNAPSHOT_POINTS + 1): SNAPSHOT_REPEATS
        for point in range(1, SNAPSHOT_POINTS + 1)
    }


def replay(
    workload_name: str,
    seed: int,
    scale: float = 1.0,
    kind: str = "timed",
    total_steps: Optional[int] = None,
    spans_path: Optional[Path] = None,
    started: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one replay in this process and return its measurements.

    ``total_steps`` (the step count of an earlier replay of the same workload,
    seed and scale) places the snapshot points of the ``checkpoint`` and
    ``traced`` kinds.  ``started`` is when set-up began (default: now).
    """
    started = perf_counter() if started is None else started
    snapshot_plan = _snapshot_plan(kind, total_steps)
    workload = workloads.WORKLOADS[workload_name]
    tracer = tracing.Tracer() if kind == "traced" else None
    timings = Timings()
    with tracer if tracer is not None else nullcontext():
        oracle = ThroughputOracle()
        with tracer.span(tracing.TRACE_GEN) if tracer is not None else nullcontext():
            jobs = workloads.make_jobs(workload, seed, scale, oracle)
        scheduler = workloads.make_scheduler(workload, oracle)
        workloads.submit_all(workload, scheduler, jobs)
        setup_seconds = perf_counter() - started
        probe = Calibrator()
        probes = [probe() for _ in range(SETUP_PROBES)]
        timings.add("setup_s", [setup_seconds], probes)

        # The drain.  ``probes`` grows by one every PROBE_INTERVAL_S and after
        # every snapshot point; a snapshot point is scaled by the two probes
        # around it, the step latencies by all probes of the drain.
        probes = probes[-1:]
        step_seconds: List[float] = []
        mid_snapshot = None
        next_probe = perf_counter() + PROBE_INTERVAL_S
        more = True
        while more:
            repeats = snapshot_plan.get(len(step_seconds), 0)
            if repeats:
                taken = []
                for _ in range(repeats):
                    start = perf_counter()
                    snapshot = scheduler.snapshot()
                    taken.append((perf_counter() - start) * 1e3)
                probes.append(probe())
                timings.add("snapshot_ms", [statistics.median(taken)], probes[-2:])
                if len(step_seconds) == total_steps // 2:
                    mid_snapshot = snapshot
            start = perf_counter()
            more = scheduler.step()
            end = perf_counter()
            step_seconds.append(end - start)
            if end >= next_probe or not more:
                probes.append(probe())
                next_probe = perf_counter() + PROBE_INTERVAL_S
        timings.add("step_s", step_seconds, probes)

        result = scheduler.result()
        outcome = logical_outcome(result, len(step_seconds))
        if kind == "traced":
            scheduler.snapshot()  # at the end: the longest session history of the run

        # Restores of the midpoint snapshot onto fresh schedulers, each scaled
        # by the probes before and after it.
        twin_equal = None
        if mid_snapshot is not None:
            wanted = MIN_RESTORES if kind == "checkpoint" else 1
            before = probes[-1]
            while len(timings.raw["restore_s"]) < wanted:
                twin = workloads.make_scheduler(workload, oracle)
                start = perf_counter()
                twin.restore(mid_snapshot)
                seconds = perf_counter() - start
                after = probe()
                timings.add("restore_s", [seconds], [before, after])
                before = after
                if kind == "checkpoint" and sum(timings.raw["restore_s"]) < RESTORE_BUDGET_S:
                    wanted = min(wanted + 1, MAX_RESTORES)
            if kind == "checkpoint":
                twin_steps = total_steps // 2 + 1
                while twin.step():
                    twin_steps += 1
                twin_equal = logical_outcome(twin.result(), twin_steps) == outcome

    records = result.records.values()
    measurements: Dict[str, Any] = {
        "kind": kind,
        "raw": timings.raw,
        "ref": timings.ref,
        "probes_ms": probes,
        "drain_factor": reference_factor(probes),
        "outcome": outcome,
        "jobs": len(jobs),
        "incomplete": sum(1 for r in records if not r.completed and not r.cancelled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "twin_equal": twin_equal,
    }
    if tracer is not None:
        measurements["layers"] = tracing.summarize(tracer, outcome["reallocs"])
        measurements["span_count"] = len(tracer.finished_spans())
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
    return measurements


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--kind", choices=KINDS, default="timed")
    parser.add_argument("--total-steps", type=int, default=None)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    measurements = replay(
        args.workload,
        args.seed,
        scale=args.scale,
        kind=args.kind,
        total_steps=args.total_steps,
        spans_path=args.spans,
        started=_PROCESS_START,
    )
    sys.stdout.flush()
    print(RESULT_MARKER + json.dumps(measurements), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

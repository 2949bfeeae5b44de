"""The pinned-outcome corpus: what every seeded scenario does, in one file.

Where a policy's optimum is not unique, the vertex a warm HiGHS session
returns depends on the calls it received before, so "did this change move
an outcome" is a question about whole runs.  ``data/outcomes.json`` answers
it for three families of scenarios:

* ``round/<name>`` — the round-mechanism runs of
  ``tests/scheduler/round_fingerprint_scenarios.py``;
* ``churn/<spec>/<aggregation>`` — one live policy session fed the churn
  sequence of ``tests/core/churn_fingerprint_scenarios.py``, for every
  ``CALL_COUNT_CASES`` entry, plus ``churn/min_cost_slo+ss/job/slos`` on the
  same sequence with SLOs;
* ``e2e/<workload>/<seed>`` — the four workloads of
  ``benchmarks/e2e/workloads.py`` at seeds 7 and 211, full scale.

Per scenario the entry holds, per HiGHS model in creation order, its calls by
kind and a SHA-256 over every call's name and arguments (``models``,
:class:`RecordingHighs`), and what the run did: a scheduler scenario's
:func:`result_fingerprint` (``outcome``) and step count (``steps``, the
drain's last ``step()``, which returns ``False``, included), a churn
scenario's non-zero allocation rows per solve (``allocations``).
``tests/test_outcomes.py`` replays every scenario against its entry under
:func:`mismatches`, and restores a snapshot taken at ``steps // 2`` (the e2e
benchmark's midpoint) on a fresh scheduler: every model the restore rebuilds
must carry the digest some live model had at the snapshot.

The call counts do not depend on the HiGHS build; the digests do where an
argument was read back from HiGHS (a ``setBasis`` basis), and so may the
vertices.  A change that means to move outcomes or calls re-records the file
and names what moved; the command prints it::

    PYTHONPATH=src python tests/outcomes.py --record
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.scheduler import ClusterScheduler
from repro.scheduler.metrics import SimulationResult
from repro.solver import lp
from repro.workloads import ThroughputOracle

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).parent / "data" / "outcomes.json"

# The scenario builders live beside the tests that share them, and the e2e
# workloads in the benchmark's own directory.
for _directory in ("tests/core", "tests/scheduler", "benchmarks/e2e"):
    if str(ROOT / _directory) not in sys.path:
        sys.path.append(str(ROOT / _directory))

import churn_fingerprint_scenarios as churn  # noqa: E402
import round_fingerprint_scenarios as rounds  # noqa: E402
import workloads  # noqa: E402

#: Seeds of the e2e workloads' arrival jitter.
E2E_SEEDS = (7, 211)

#: Every ``_Highs`` method the LP layer drives a live model through.
HIGHS_CALLS = (
    "passModel", "addCols", "addRows", "deleteRows", "changeCoeff", "changeRowBounds",
    "changeColsBounds", "changeColsCost", "changeObjectiveSense", "setBasis", "run",
    "setOptionValue",
)


def feed_call(digest: "hashlib._Hash", value: Any) -> None:
    """Hash one call argument: arrays by dtype, shape and bytes, HiGHS objects by their arrays.

    A ``setBasis`` basis is hashed as its two status lists, a ``passModel``
    LP as its column count, sense, bounds, costs and row-wise matrix.
    """
    if isinstance(value, np.ndarray):
        digest.update(repr((value.dtype.str, value.shape)).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        digest.update(f"[{len(value)}".encode())
        for item in value:
            feed_call(digest, item)
    elif hasattr(value, "col_status"):
        feed_call(digest, [[int(s) for s in value.col_status], [int(s) for s in value.row_status]])
    elif hasattr(value, "a_matrix_"):
        matrix = value.a_matrix_
        feed_call(digest, [
            value.num_col_, int(value.sense_), value.col_cost_, value.col_lower_,
            value.col_upper_, value.row_lower_, value.row_upper_,
            matrix.start_, matrix.index_, matrix.value_,
        ])
    else:
        digest.update(repr(value).encode())


class RecordingHighs(lp._highs_core._Highs):
    """A HiGHS model that counts its calls by kind and digests each call's name and arguments.

    Each element of a ``changeCoeff`` or ``changeRowBounds`` loop counts as
    one call.  Every model made inside :func:`recording_highs` is appended to
    the list that block yields.
    """

    created: List["RecordingHighs"] = []

    def __init__(self) -> None:
        super().__init__()
        self.counts: Dict[str, int] = {}
        self.digest = hashlib.sha256()
        RecordingHighs.created.append(self)

    def entry(self) -> Dict[str, Any]:
        """The calls so far: ``{"calls": {kind: count}, "sha256": hex digest}``."""
        return {"calls": dict(sorted(self.counts.items())), "sha256": self.digest.hexdigest()}


def _recorded(name: str) -> Callable[..., Any]:
    real = getattr(lp._highs_core._Highs, name)

    def recorded(self: RecordingHighs, *args: Any) -> Any:
        self.counts[name] = self.counts.get(name, 0) + 1
        feed_call(self.digest, (name, args))
        return real(self, *args)

    return recorded


for _name in HIGHS_CALLS:
    setattr(RecordingHighs, _name, _recorded(_name))


@contextlib.contextmanager
def recording_highs() -> Iterator[List[RecordingHighs]]:
    """Record every HiGHS model created inside the block; yields them in creation order."""
    models: List[RecordingHighs] = []
    base, outer = lp._highs_core._Highs, RecordingHighs.created
    lp._highs_core._Highs, RecordingHighs.created = RecordingHighs, models
    try:
        yield models
    finally:
        lp._highs_core._Highs, RecordingHighs.created = base, outer


def result_fingerprint(result: SimulationResult) -> Dict[str, Any]:
    """Everything a result derives its metrics from, as JSON-ready data (jobs keyed by id)."""
    records = sorted(result.records.items())

    def per_job(read: Callable[[Any], Any]) -> Dict[str, Any]:
        return {str(job_id): read(record) for job_id, record in records}

    return {
        "end_time": result.end_time,
        "num_rounds": result.num_rounds,
        "num_policy_recomputations": result.num_policy_recomputations,
        "allocation_staleness_integral": result.allocation_staleness_integral,
        "num_allocation_stale_events": result.num_allocation_stale_events,
        "total_cost_dollars": result.total_cost_dollars,
        "busy_worker_seconds": dict(sorted(result.busy_worker_seconds.items())),
        "capacity_worker_seconds": dict(sorted(result.capacity_worker_seconds.items())),
        "checkpoint_worker_seconds": dict(sorted(result.checkpoint_worker_seconds.items())),
        "isolated_durations": {
            str(job_id): seconds for job_id, seconds in sorted(result.isolated_durations.items())
        },
        "completion_time": per_job(lambda record: record.completion_time),
        "cancelled": per_job(lambda record: record.cancelled),
        "first_allocation_time": per_job(lambda record: record.first_allocation_time),
        "steps_done": per_job(lambda record: record.steps_done),
        "cost_dollars": per_job(lambda record: record.cost_dollars),
        "preemptions": per_job(lambda record: record.preemptions),
        "checkpoint_seconds": per_job(lambda record: record.checkpoint_seconds),
        "accelerator_seconds": per_job(
            lambda record: dict(sorted(record.accelerator_seconds.items()))
        ),
    }


def mismatches(actual: Any, recorded: Any, path: str = "") -> List[str]:
    """Where ``actual`` departs from ``recorded``, one ``"path: detail"`` line each.

    Floats agree to rel/abs 1e-9 (LP round-off may differ in the last bits
    across HiGHS builds, a changed schedule by far more); everything else —
    keys, lengths, counts, digests, ``None`` — must be equal.
    """
    if isinstance(recorded, dict) and isinstance(actual, dict):
        found = [
            f"{path}/{key}: only {'recorded' if key in recorded else 'observed'}"
            for key in sorted(actual.keys() ^ recorded.keys())
        ]
        for key in sorted(actual.keys() & recorded.keys()):
            found += mismatches(actual[key], recorded[key], f"{path}/{key}")
        return found
    if isinstance(recorded, list) and isinstance(actual, list):
        if len(actual) != len(recorded):
            return [f"{path}: {len(actual)} items, recorded {len(recorded)}"]
        found = []
        for index, (got, want) in enumerate(zip(actual, recorded)):
            found += mismatches(got, want, f"{path}/{index}")
        return found
    if isinstance(recorded, float) and isinstance(actual, (float, int)):
        if math.isclose(actual, recorded, rel_tol=1e-9, abs_tol=1e-9):
            return []
    elif actual == recorded:
        return []
    return [f"{path}: {actual!r}, recorded {recorded!r}"]


def drain(
    loaded: Callable[[], ClusterScheduler],
    fresh: Callable[[], ClusterScheduler],
    snapshot_at: Optional[int] = None,
) -> Dict[str, Any]:
    """Step a scheduler scenario to the end; with ``snapshot_at``, also check a restore.

    The snapshot is taken before step ``snapshot_at`` (counted from 0) and
    restored on ``fresh()`` after the drain.  ``restore`` then holds, per
    model the restore rebuilt, whether some live model had its digest at the
    snapshot.
    """
    with recording_highs() as models:
        scheduler, steps, more = loaded(), 0, True
        snapshot, at_snapshot = None, set()
        while more:
            if steps == snapshot_at:
                snapshot = scheduler.snapshot()
                at_snapshot = {model.digest.hexdigest() for model in models}
            more = scheduler.step()
            steps += 1
        observed: Dict[str, Any] = {
            "outcome": result_fingerprint(scheduler.result()),
            "models": [model.entry() for model in models],
            "steps": steps,
        }
        if snapshot is not None:
            live = len(models)
            fresh().restore(snapshot)
            observed["restore"] = [
                model.digest.hexdigest() in at_snapshot for model in models[live:]
            ]
    return observed


def churn_run(policy_spec: str, aggregation: str, slos: bool = False) -> Dict[str, Any]:
    """One live session fed the churn sequence: every allocation, and its models' calls."""
    steps = churn.churn_problems(ThroughputOracle(), slos=slos)
    with recording_highs() as models:
        allocations = [
            churn.allocation_fingerprint(allocation)
            for _session, allocation in churn.session_solves(policy_spec, steps, aggregation)
        ]
    return {"allocations": allocations, "models": [model.entry() for model in models]}


#: A scheduler scenario: (a scheduler with its trace submitted, an empty one to restore on).
Factories = Tuple[Callable[[], ClusterScheduler], Callable[[], ClusterScheduler]]


def _e2e(name: str, seed: int) -> Factories:
    workload, oracle = workloads.WORKLOADS[name], ThroughputOracle()

    def loaded() -> ClusterScheduler:
        scheduler = workloads.make_scheduler(workload, oracle)
        workloads.submit_all(workload, scheduler, workloads.make_jobs(workload, seed, 1.0, oracle))
        return scheduler

    return loaded, lambda: workloads.make_scheduler(workload, oracle)


#: Scheduler scenarios by id.
SCHEDULERS: Dict[str, Factories] = {
    **{
        f"round/{name}": (
            lambda name=name: rounds.run_scenario(name, until=0.0),
            lambda name=name: rounds.scenario_scheduler(name),
        )
        for name in rounds.SCENARIOS
    },
    **{
        f"e2e/{name}/{seed}": _e2e(name, seed)
        for name in workloads.WORKLOADS
        for seed in E2E_SEEDS
    },
}

#: Churn scenarios: id -> (policy spec, aggregation, SLOs on the trace?).
CHURN: Dict[str, Tuple[str, str, bool]] = {
    **{
        f"churn/{spec}/{aggregation}": (spec, aggregation, False)
        for spec, aggregation in churn.CALL_COUNT_CASES
    },
    "churn/min_cost_slo+ss/job/slos": ("min_cost_slo+ss", "job", True),
}

SCENARIOS = sorted([*SCHEDULERS, *CHURN])


def observe(scenario: str, snapshot_at: Optional[int] = None) -> Dict[str, Any]:
    """Run ``scenario``: its entry's parts, plus ``restore`` if ``snapshot_at`` is given."""
    if scenario in CHURN:
        return churn_run(*CHURN[scenario])
    return drain(*SCHEDULERS[scenario], snapshot_at=snapshot_at)


def load_recorded() -> Dict[str, Any]:
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def moved_parts(observed: Dict[str, Any], recorded: Dict[str, Any]) -> List[str]:
    """What moved in one entry: ``steps``, ``outcome (n: the paths)``, ``model 1 digest``, ..."""
    parts: Dict[str, List[str]] = {}
    for line in mismatches(observed, recorded):
        path = line.split(":")[0].strip("/").split("/")
        if path[0] == "models" and len(path) > 2:
            parts.setdefault(f"model {path[1]} {'digest' if path[2] == 'sha256' else 'counts'}", [])
        else:
            parts.setdefault(path[0], []).extend(["/".join(path[1:])] if len(path) > 1 else [])
    return [
        f"{part} ({len(paths)}: {', '.join(paths[:4])}{', ...' if len(paths) > 4 else ''})"
        if paths else part
        for part, paths in parts.items()
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help=f"rewrite {RECORDED.name}")
    if not parser.parse_args().record:
        parser.error("nothing to do without --record")
    before = load_recorded() if RECORDED.exists() else {}
    recording = {scenario: observe(scenario) for scenario in SCENARIOS}
    for scenario in sorted(before.keys() | recording.keys()):
        if scenario not in recording:
            print(f"{scenario}: dropped")
        elif scenario not in before:
            print(f"{scenario}: new")
        else:
            moved = moved_parts(recording[scenario], before[scenario])
            if moved:
                print(f"{scenario}: {'; '.join(moved)}")
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recording)} scenarios into {RECORDED}")


if __name__ == "__main__":
    main()

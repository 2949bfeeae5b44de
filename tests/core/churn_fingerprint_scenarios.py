"""Seeded ``+ss`` churn runs whose allocations are pinned in ``data/churn_fingerprints.json``.

Two recordings, both made by :func:`churn_fingerprints` for every spec in
:data:`SS_POLICY_SPECS`:

* ``churn_fingerprints.json`` pins every allocation of a live session fed the
  sequence, vertex and all.  A live program re-solves from the basis its
  previous solve left, so where a policy's optimum is not unique the vertex
  depends on the solve history *and on how the LP layer carries the basis
  across edits*: a refactor of the LP assembly must reproduce this file, a
  change to basis handling (or another HiGHS build) may legitimately not.
  Re-record with ``python tests/core/churn_fingerprint_scenarios.py --record``
  — after :func:`policy_objective` has shown the new vertices to be ties.
* ``churn_fingerprints_cold.json`` is the recording from before the basis
  survived row edits (every re-solve after a row rewrite started cold; made
  where ``tests/core/test_lp_vectorized.py`` still proved the dict and columnar
  assembly bit-identical on this sequence).  It is never re-recorded: tests
  compare against it by *objective*, which no tie-break can move, and
  :data:`UNIQUE_OPTIMUM_SPECS` still match it bit for bit.

``churn_call_counts.json`` pins, per spec and per HiGHS model in creation
order, how many calls of each kind the live models receive over the
sequence and a SHA-256 over every call's name and arguments, in order
(:func:`counting_highs`).  The counts do not depend on the HiGHS build; the
digests do where an argument was read back from HiGHS (a ``setBasis``
basis).  An LP-layer refactor that claims to send the same calls must
reproduce this file; re-record with ``--record-calls`` only when the calls
are meant to change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.cluster import ClusterSpec
from repro.core import make_policy
from repro.core.allocation import Allocation
from repro.core.allocation_engine import AllocationEngine
from repro.core.effective_throughput import effective_throughputs, fastest_reference_throughput
from repro.core.finish_time_fairness import finish_time_requirements
from repro.core.makespan import makespan_requirements
from repro.core.problem import PolicyProblem
from repro.core.session import PolicySession
from repro.solver import lp
from repro.workloads import ColocationModel, ThroughputOracle, TraceGenerator

RECORDED = Path(__file__).parent / "data" / "churn_fingerprints.json"
RECORDED_COLD = Path(__file__).parent / "data" / "churn_fingerprints_cold.json"
RECORDED_CALLS = Path(__file__).parent / "data" / "churn_call_counts.json"

#: Every ``_Highs`` method the LP layer drives a live model through.
HIGHS_CALLS = (
    "passModel", "addCols", "addRows", "deleteRows", "changeCoeff", "changeRowBounds",
    "changeColsBounds", "changeColsCost", "changeObjectiveSense", "setBasis", "run",
    "setOptionValue",
)

#: Every LP/fractional-program policy from the registry, with space sharing.
SS_POLICY_SPECS = [
    "max_min_fairness+ss",
    "max_min_fairness+ss@agnostic",
    "fifo+ss",
    "makespan+ss",
    "finish_time_fairness+ss",
    "shortest_job_first+ss",
    "max_total_throughput+ss",
    "min_cost+ss",
    "min_cost_slo+ss",
]


#: Specs whose optimum is unique on this sequence: no basis can move them.
UNIQUE_OPTIMUM_SPECS = ["fifo+ss", "shortest_job_first+ss"]

#: ``(spec, aggregation)`` runs whose HiGHS call counts are pinned: the
#: ``+ss`` specs above, plus plain LAS, the water-filling family and
#: type-aggregated sessions, so every incremental session kind is covered.
CALL_COUNT_CASES = [(spec, "job") for spec in SS_POLICY_SPECS] + [
    ("max_min_fairness", "job"),
    ("max_min_fairness_water_filling+ss", "job"),
    ("hierarchical+ss", "job"),
    ("max_min_fairness+ss", "type"),
    ("hierarchical+ss", "type"),
]


def load_recorded(path: Path = RECORDED) -> Dict[str, Any]:
    return json.loads(path.read_text(encoding="utf-8"))


def churn_problems(
    oracle: ThroughputOracle, num_jobs: int = 16, num_events: int = 6, seed: int = 7
) -> List[Tuple[PolicyProblem, list]]:
    """A problem sequence plus per-step deltas from the engine under churn."""
    trace = TraceGenerator(oracle).generate_static(num_jobs=num_jobs + num_events, seed=seed)
    jobs = list(trace.jobs)
    spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
    engine = AllocationEngine(
        oracle, space_sharing=True, colocation_model=ColocationModel(oracle)
    )
    engine.add_jobs(jobs[:num_jobs])
    active = {job.job_id: job for job in jobs[:num_jobs]}
    steps = []
    for event in range(num_events + 1):
        if event > 0:
            engine.remove_job(jobs[event - 1].job_id)
            del active[jobs[event - 1].job_id]
            newcomer = jobs[num_jobs + event - 1]
            engine.add_job(newcomer)
            active[newcomer.job_id] = newcomer
        problem = PolicyProblem(
            jobs=dict(active),
            throughputs=engine.matrix(),
            cluster_spec=spec,
            steps_remaining={j: job.total_steps * 0.8 for j, job in active.items()},
            time_elapsed={j: 120.0 * (i + 1) for i, j in enumerate(sorted(active))},
        )
        steps.append((problem, engine.drain_deltas()))
    return steps


def session_solves(
    policy_spec: str, steps, aggregation: str = "job"
) -> Iterator[Tuple[PolicySession, Allocation]]:
    """One live session fed the churn sequence: ``(session, allocation)`` after each step."""
    policy = make_policy(policy_spec, aggregation=aggregation)
    session = None
    for problem, deltas in steps:
        if session is None:
            session = policy.session(problem)
        else:
            session.apply(deltas)
        yield session, session.solve(problem)


def session_allocations(policy_spec: str, steps) -> List[Allocation]:
    """One live session fed the churn sequence: the allocation after each step."""
    return [allocation for _session, allocation in session_solves(policy_spec, steps)]


def feed_call(digest: "hashlib._Hash", value: Any) -> None:
    """Hash one call argument: arrays by their bytes, HiGHS objects by their arrays.

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


@contextlib.contextmanager
def counting_highs() -> Iterator[List[Tuple[Dict[str, int], "hashlib._Hash"]]]:
    """Count and digest the calls of every HiGHS model created inside the block.

    Yields a list that receives one ``({call kind: count}, sha256)`` pair per
    model, in creation order; each element of a ``changeCoeff`` or
    ``changeRowBounds`` loop counts as one call, and every call's name and
    arguments go into the model's digest in the order they were made.
    """
    models: List[Tuple[Dict[str, int], "hashlib._Hash"]] = []
    base = lp._highs_core._Highs

    class Counting(base):  # type: ignore[misc, valid-type]
        def __init__(self) -> None:
            super().__init__()
            self.counts: Dict[str, int] = {}
            self.digest = hashlib.sha256()
            models.append((self.counts, self.digest))

    for name in HIGHS_CALLS:
        def counted(self, *args, _name=name, _real=getattr(base, name)):
            self.counts[_name] = self.counts.get(_name, 0) + 1
            feed_call(self.digest, (_name, args))
            return _real(self, *args)

        setattr(Counting, name, counted)
    lp._highs_core._Highs = Counting
    try:
        yield models
    finally:
        lp._highs_core._Highs = base


def call_count_key(policy_spec: str, aggregation: str) -> str:
    """The recording's key of one :data:`CALL_COUNT_CASES` entry."""
    return policy_spec if aggregation == "job" else f"{policy_spec} aggregation={aggregation}"


def churn_call_counts(policy_spec: str, steps, aggregation: str = "job") -> List[Dict[str, Any]]:
    """Per HiGHS model, in creation order: its calls by kind and their digest over the sequence."""
    with counting_highs() as models:
        for _solved in session_solves(policy_spec, steps, aggregation):
            pass
    return [
        {"calls": dict(sorted(counts.items())), "sha256": digest.hexdigest()}
        for counts, digest in models
    ]


def allocation_fingerprint(allocation: Allocation) -> Dict[str, List[float]]:
    """Every non-zero allocation row, keyed by its combination, as JSON-ready data."""
    return {
        "-".join(str(job_id) for job_id in combination): allocation.row(combination).tolist()
        for combination in allocation.combinations
        if allocation.row(combination).any()
    }


def churn_fingerprints(policy_spec: str, steps) -> List[Dict[str, List[float]]]:
    return [allocation_fingerprint(a) for a in session_allocations(policy_spec, steps)]


def allocation_from_fingerprint(problem: PolicyProblem, rows: Dict[str, List[float]]) -> Allocation:
    """The allocation a recorded step stands for (rows it omits are idle)."""
    return Allocation(
        problem.throughputs.registry,
        {tuple(int(job_id) for job_id in key.split("-")): values for key, values in rows.items()},
        scale_factors=problem.scale_factors(),
    )


def scalar_requirements(
    policy_spec: str, problem: PolicyProblem, value: float
) -> Dict[int, float]:
    """Per-job minimum throughputs at makespan (or finish-time-fairness rho) ``value``."""
    policy = make_policy(policy_spec)
    curves = (
        makespan_requirements
        if policy_spec.split("+")[0] == "makespan"
        else finish_time_requirements
    )(problem, policy.effective_matrix(problem))
    return dict(zip(problem.job_ids, curves.required(value).tolist()))


def policy_objective(policy_spec: str, problem: PolicyProblem, allocation: Allocation) -> float:
    """What the policy's program maximises, computed from the allocation alone.

    Two optimal vertices of one program differ in the allocation and agree
    here.  For makespan and finish-time fairness this is the objective of the
    witness LP (total throughput), which two solves share only if they
    certified the same scalar; what their allocations must achieve is checked
    with :func:`scalar_requirements`.
    """
    policy = make_policy(policy_spec)
    matrix = policy.effective_matrix(problem)
    throughputs = effective_throughputs(matrix, allocation)
    name = policy_spec.split("+")[0]
    if name == "max_min_fairness":
        return min(
            policy.normalized_throughput_scale(problem, matrix, job_id) * throughputs[job_id]
            for job_id in matrix.job_ids
        )
    if name in ("makespan", "finish_time_fairness"):
        return sum(throughputs.values())
    normalized = sum(
        throughputs[job_id] / fastest_reference_throughput(matrix, job_id)
        for job_id in matrix.job_ids
    )
    if name == "max_total_throughput":
        return normalized
    if name in ("min_cost", "min_cost_slo"):
        costs = np.asarray(matrix.registry.costs_per_hour(), dtype=float)
        dollars = sum(
            float(np.dot(allocation.row(combination), costs))
            * max(problem.scale_factor(job_id) for job_id in combination)
            for combination in allocation.combinations
        )
        return normalized / (dollars + 1e-9)
    raise KeyError(f"no objective written down for {policy_spec!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help=f"rewrite {RECORDED.name}")
    parser.add_argument(
        "--record-calls", action="store_true", help=f"rewrite {RECORDED_CALLS.name}"
    )
    arguments = parser.parse_args()
    if not (arguments.record or arguments.record_calls):
        parser.error("nothing to do without --record or --record-calls")
    steps = churn_problems(ThroughputOracle())
    recordings = []
    if arguments.record:
        recordings.append(
            (RECORDED, {spec: churn_fingerprints(spec, steps) for spec in SS_POLICY_SPECS})
        )
    if arguments.record_calls:
        recordings.append((RECORDED_CALLS, {
            call_count_key(spec, aggregation): churn_call_counts(spec, steps, aggregation)
            for spec, aggregation in CALL_COUNT_CASES
        }))
    for path, recording in recordings:
        path.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(recording)} runs x {len(steps)} steps into {path}")


if __name__ == "__main__":
    main()

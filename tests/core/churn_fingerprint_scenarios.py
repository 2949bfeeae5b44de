"""Seeded churn runs of live policy sessions: the scenarios behind the churn corpus.

:func:`churn_problems` builds one problem sequence (16 jobs, then six
events that each retire one job and admit another) and
:func:`session_solves` feeds it to one live session.  ``tests/outcomes.py``
replays every :data:`CALL_COUNT_CASES` entry, plus ``min_cost_slo+ss`` on the
same sequence with SLOs, and pins in ``tests/data/outcomes.json`` every
allocation vertex for vertex and, per HiGHS model, the calls it received.  A
live program re-solves from the basis its previous solve left, so where a
policy's optimum is not unique the vertex depends on the solve history *and
on how the LP layer carries the basis across edits*: a refactor of the LP
assembly must reproduce those entries, a change to basis handling (or
another HiGHS build) may legitimately not, after :func:`policy_objective`
has shown the new vertices to be ties.

``data/churn_fingerprints_cold.json`` is the recording from before the basis
survived row edits (every re-solve after a row rewrite started cold; made
where ``tests/core/test_lp_vectorized.py`` still proved the dict and columnar
assembly bit-identical on this sequence).  It is never re-recorded: tests
compare against it by *objective*, which no tie-break can move, and
:data:`UNIQUE_OPTIMUM_SPECS` still match it bit for bit.  A spec is listed
there only if a pure reordering of the LP's columns leaves every vertex in
place: ``fifo+ss`` does; ``shortest_job_first+ss`` does not (its step 6 is a
tie), so :func:`policy_objective` holds it to its rank-weighted objective.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

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
from repro.workloads import ColocationModel, ThroughputOracle, TraceGenerator

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
#: ``shortest_job_first+ss`` is not one: at step 6 a pure reordering of the
#: new rows' columns returns another vertex with the same rank-weighted
#: objective, so it is held to the objective like the other ties.
#: ``fifo+ss`` kept every vertex under that reordering.
UNIQUE_OPTIMUM_SPECS = ["fifo+ss"]

#: ``(spec, aggregation)`` runs whose allocations and HiGHS calls the corpus
#: pins: the ``+ss`` specs above, plus plain LAS, the water-filling family and
#: type-aggregated sessions, so every incremental session kind is covered.
CALL_COUNT_CASES = [(spec, "job") for spec in SS_POLICY_SPECS] + [
    ("max_min_fairness", "job"),
    ("max_min_fairness_water_filling+ss", "job"),
    ("hierarchical+ss", "job"),
    ("max_min_fairness+ss", "type"),
    ("hierarchical+ss", "type"),
]


def churn_problems(
    oracle: ThroughputOracle,
    num_jobs: int = 16,
    num_events: int = 6,
    seed: int = 7,
    slos: bool = False,
) -> List[Tuple[PolicyProblem, list]]:
    """A problem sequence plus per-step deltas from the engine under churn.

    With ``slos`` every job carries an SLO (:meth:`TraceGenerator.assign_slos`),
    which ``min_cost_slo`` turns into throughput rows.
    """
    generator = TraceGenerator(oracle)
    trace = generator.generate_static(num_jobs=num_jobs + num_events, seed=seed)
    if slos:
        trace = generator.assign_slos(trace, seed=seed)
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


def allocation_fingerprint(allocation: Allocation) -> Dict[str, List[float]]:
    """Every non-zero allocation row, keyed by its combination, as JSON-ready data."""
    return {
        "-".join(str(job_id) for job_id in combination): allocation.row(combination).tolist()
        for combination in allocation.combinations
        if allocation.row(combination).any()
    }


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
    if name == "shortest_job_first":
        # Rank-weighted normalized throughput, shortest best-case duration first.
        ranked = policy.ranked_jobs(problem)
        return sum(
            (len(ranked) - position) * throughputs[job_id] / fastest_reference_throughput(matrix, job_id)
            for position, (job_id, _duration) in enumerate(ranked)
        )
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

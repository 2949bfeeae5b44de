"""Session-equivalence harness: policy sessions vs from-scratch rebuilds.

Every policy in the registry supports two allocation APIs — the stateless
``compute_allocation`` (equivalently, a fresh
:class:`~repro.core.session.RebuildSession` per solve) and the stateful
:meth:`~repro.core.policy.Policy.session` driven by the allocation engine's
delta stream.  The two must agree at every step of a churn trace.  This
module centralizes how "agree" is checked, replacing the per-policy
objective evaluators that used to live ad hoc in the test suite:

* when the allocations coincide row for row, the check is exact;
* otherwise the policy's LP typically has *degenerate* optima
  (interchangeable jobs make many vertices optimal) and a warm-started
  re-solve may legitimately return a different — equally optimal — vertex
  than a cold build, so the assertion falls back to the policy's own scalar
  objective (:func:`policy_objective_value`) agreeing to solver tolerance;
* the water-filling family gets a *stronger* degenerate-tier check: the full
  sorted per-job normalized-throughput profile — the leximin content of the
  water-filling procedure, which is mathematically unique — must match, not
  just the minimum.

:func:`run_churn_equivalence` packages the whole protocol (a deterministic
randomized churn trace through an
:class:`~repro.core.allocation_engine.AllocationEngine`, one long-lived
session on one side — per job or type-aggregated — and a fresh per-job
``RebuildSession`` per step on the other) so each registry-wide test is a
one-liner per policy spec.  :func:`summarize_deltas` folds each drained
delta batch into the facts the driver checks against the engine.

Tests import this module as ``tests.equivalence``, the way they import
``tests.conftest``; the runtime package never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.core.aggregation import GroupKey
from repro.core.allocation import Allocation
from repro.core.allocation_engine import AllocationEngine
from repro.core.effective_throughput import (
    effective_throughput,
    fastest_reference_throughput,
    isolated_reference_throughput,
    normalized_throughput_scale,
)
from repro.core.finish_time_fairness import FinishTimeFairnessPolicy, finish_time_fairness_rho
from repro.core.makespan import MakespanPolicy
from repro.core.policy import Policy
from repro.core.problem import PolicyProblem
from repro.core.registry import make_policy, parse_policy_spec
from repro.core.session import (
    EstimateRefined,
    JobAdded,
    JobRemoved,
    PolicyDelta,
    RebuildSession,
    TypeCountChanged,
)
from repro.core.throughput_matrix import JobCombination
from repro.workloads.job import Job
from repro.workloads.throughputs import ThroughputOracle
from repro.workloads.trace_generator import TraceGenerator

#: Relative tolerance for objective-tier comparisons.
REL_TOL = 1e-4
#: Absolute tolerance on sorted water-filling level profiles: a few multiples
#: of the procedure's own 1e-4 floor slack / 1e-3 improvement threshold.
LEVEL_PROFILE_TOL = 5e-3

#: Registry bases whose degenerate tier compares water-filling level profiles.
_WATER_FILLING_BASES = ("max_min_fairness_water_filling", "hierarchical")
#: Policies that certify a scalar optimum to their own ``relative_tolerance``.
_CERTIFIED_SCALAR_POLICIES = (MakespanPolicy, FinishTimeFairnessPolicy)


def policy_objective_value(
    spec: str, policy: Policy, problem: PolicyProblem, allocation: Allocation
) -> Optional[float]:
    """The scalar the policy optimizes, evaluated at ``allocation``.

    Returns ``None`` for the combinatorial baselines, which have no scalar
    objective — callers must then require exact allocation equality.
    """
    matrix = policy.effective_matrix(problem)
    throughputs = {
        job_id: effective_throughput(matrix, allocation, job_id)
        for job_id in problem.job_ids
    }
    base = parse_policy_spec(spec)[0]
    if base in ("max_min_fairness",) + _WATER_FILLING_BASES:
        return min(
            throughputs[j]
            * normalized_throughput_scale(
                matrix,
                problem.cluster_spec,
                j,
                scale_factor=problem.scale_factor(j),
                priority_weight=problem.priority_weight(j),
            )
            for j in problem.job_ids
        )
    if base == "fifo":
        order = problem.arrival_order()
        total = len(order)
        return sum(
            (total - position) * throughputs[j] / fastest_reference_throughput(matrix, j)
            for position, j in enumerate(order)
        )
    if base == "shortest_job_first":
        ranked = policy.ranked_jobs(problem)
        total = len(ranked)
        return sum(
            (total - position) * throughputs[j] / fastest_reference_throughput(matrix, j)
            for position, (j, _duration) in enumerate(ranked)
        )
    if base == "max_total_throughput":
        return sum(
            throughputs[j] / float(matrix.isolated_throughputs(j).max())
            for j in problem.job_ids
        )
    if base == "makespan":
        return max(
            (problem.remaining_steps(j) / throughputs[j]) if throughputs[j] > 0 else math.inf
            for j in problem.job_ids
        )
    if base == "finish_time_fairness":
        num_jobs = problem.num_jobs
        return max(
            finish_time_fairness_rho(
                problem.elapsed(j),
                problem.remaining_steps(j),
                throughputs[j],
                isolated_reference_throughput(
                    matrix,
                    problem.cluster_spec,
                    j,
                    num_jobs=num_jobs,
                    scale_factor=problem.scale_factor(j),
                ),
            )
            for j in problem.job_ids
        )
    if base in ("min_cost", "min_cost_slo"):
        costs = matrix.registry.costs_per_hour()
        cost = 0.0
        for combination in allocation.combinations:
            scale = max(problem.scale_factor(j) for j in combination)
            cost += float(np.dot(allocation.row(combination), costs)) * scale
        numerator = sum(
            throughputs[j] / fastest_reference_throughput(matrix, j)
            for j in problem.job_ids
        )
        return numerator / (cost + 1e-9)
    return None  # combinatorial baselines: exact equality is required instead


def water_filling_level_profile(
    policy: Policy, problem: PolicyProblem, allocation: Allocation
) -> np.ndarray:
    """Sorted per-job normalized throughputs — the leximin water-filling content.

    The leximin-optimal *value* vector over the convex feasible region is
    unique, so two correct water-filling runs must agree on this profile (to
    the procedure's epsilon tolerances) even when they pick different
    equally-optimal allocation vertices.
    """
    matrix = policy.effective_matrix(problem)
    values = [
        effective_throughput(matrix, allocation, j)
        * normalized_throughput_scale(
            matrix, problem.cluster_spec, j, scale_factor=problem.scale_factor(j)
        )
        for j in problem.job_ids
    ]
    return np.sort(np.asarray(values))


def assert_session_equivalent(
    spec: str,
    policy: Policy,
    problem: PolicyProblem,
    session_allocation: Allocation,
    scratch_allocation: Allocation,
) -> bool:
    """Assert the two allocations agree per the tiered protocol; returns exactness.

    Returns ``True`` when the allocations matched row for row, ``False`` when
    the (still passing) degenerate-tier comparison was used.  Raises
    ``AssertionError`` on any real disagreement.
    """
    session_allocation.validate(problem.cluster_spec)
    scratch_allocation.validate(problem.cluster_spec)

    def _row(allocation: Allocation, combination: JobCombination) -> Optional[np.ndarray]:
        return allocation.row(combination) if allocation.has_row(combination) else None

    exact = True
    for combination in set(session_allocation.combinations) | set(
        scratch_allocation.combinations
    ):
        # Compare over the union of row sets, treating a side's missing row
        # as zeros — combinatorial baselines may emit different pair sets.
        session_row = _row(session_allocation, combination)
        scratch_row = _row(scratch_allocation, combination)
        if session_row is None:
            exact = np.allclose(scratch_row, 0.0, atol=1e-6)
        elif scratch_row is None:
            exact = np.allclose(session_row, 0.0, atol=1e-6)
        else:
            exact = np.allclose(session_row, scratch_row, atol=1e-6)
        if not exact:
            break
    if exact:
        return True
    base = parse_policy_spec(spec)[0]
    if base in _WATER_FILLING_BASES:
        session_profile = water_filling_level_profile(policy, problem, session_allocation)
        scratch_profile = water_filling_level_profile(policy, problem, scratch_allocation)
        np.testing.assert_allclose(
            session_profile,
            scratch_profile,
            atol=LEVEL_PROFILE_TOL,
            rtol=LEVEL_PROFILE_TOL,
            err_msg=f"{spec}: water-filling level profiles diverged",
        )
        return False
    session_value = policy_objective_value(spec, policy, problem, session_allocation)
    scratch_value = policy_objective_value(spec, policy, problem, scratch_allocation)
    assert session_value is not None, (
        f"{spec}: allocations differ but policy has no objective evaluator"
    )
    tolerance = REL_TOL
    if isinstance(policy, _CERTIFIED_SCALAR_POLICIES):
        # Each side lies within its own certified bracket around the optimum.
        tolerance = 2.0 * policy.relative_tolerance
    assert math.isclose(session_value, scratch_value, rel_tol=tolerance, abs_tol=1e-9), (
        f"{spec}: session objective {session_value} != scratch {scratch_value}"
    )
    return False


def assert_aggregation_equivalent(
    spec: str,
    policy: Policy,
    problem: PolicyProblem,
    aggregated_allocation: Allocation,
    baseline_allocation: Allocation,
    group_key: Optional[Callable[[Job], GroupKey]] = None,
) -> None:
    """Assert a type-aggregated solve matches the per-job baseline.

    ``problem`` must be the full per-job snapshot (every member pair row
    present) so both allocations' objectives are evaluated on equal footing.
    The contract is:

    * both allocations are valid;
    * the policy's scalar objective agrees (to :data:`REL_TOL` for the
      one-shot LP bases — allocation *rows* may differ because
      interchangeable jobs make many LP vertices optimal, but the optimum
      value is unique; to :data:`LEVEL_PROFILE_TOL` for the water-filling
      bases, whose level loop carries its own epsilon slack);
    * for the water-filling bases the *full sorted level profile* — the
      leximin content of the procedure — also matches the per-job baseline;
    * within every aggregation group the expanded allocation hands each
      member the same total time fraction (the proportional equal split).
      ``group_key`` is the aggregated policy's
      :meth:`~repro.core.policy.Policy.aggregation_group_key` (default: the
      free-standing type key), so the check follows policy-refined groupings
      such as the hierarchical per-entity split.
    """
    from repro.core.aggregation import aggregation_key

    aggregated_allocation.validate(problem.cluster_spec)
    baseline_allocation.validate(problem.cluster_spec)
    base = parse_policy_spec(spec)[0]
    aggregated_value = policy_objective_value(spec, policy, problem, aggregated_allocation)
    baseline_value = policy_objective_value(spec, policy, problem, baseline_allocation)
    assert aggregated_value is not None, (
        f"{spec}: policy has no objective evaluator; aggregation unsupported"
    )
    if base in _WATER_FILLING_BASES:
        assert math.isclose(
            aggregated_value,
            baseline_value,
            rel_tol=LEVEL_PROFILE_TOL,
            abs_tol=LEVEL_PROFILE_TOL,
        ), (
            f"{spec}: aggregated objective {aggregated_value} != per-job baseline "
            f"{baseline_value}"
        )
        aggregated_profile = water_filling_level_profile(
            policy, problem, aggregated_allocation
        )
        baseline_profile = water_filling_level_profile(policy, problem, baseline_allocation)
        np.testing.assert_allclose(
            aggregated_profile,
            baseline_profile,
            atol=LEVEL_PROFILE_TOL,
            rtol=LEVEL_PROFILE_TOL,
            err_msg=f"{spec}: aggregated water-filling level profile diverged",
        )
    else:
        assert math.isclose(
            aggregated_value, baseline_value, rel_tol=REL_TOL, abs_tol=1e-9
        ), (
            f"{spec}: aggregated objective {aggregated_value} != per-job baseline "
            f"{baseline_value}"
        )
    key_fn: Callable[[Job], GroupKey] = (
        aggregation_key if group_key is None else group_key
    )
    groups: Dict[GroupKey, List[int]] = {}
    for job_id in problem.job_ids:
        groups.setdefault(key_fn(problem.jobs[job_id]), []).append(job_id)
    for key, members in groups.items():
        totals = [aggregated_allocation.job_total(member) for member in members]
        np.testing.assert_allclose(
            totals,
            np.full(len(totals), totals[0]),
            atol=1e-6,
            err_msg=f"{spec}: group {key} members received unequal splits",
        )


def churn_events(
    oracle: ThroughputOracle,
    num_initial: int = 8,
    num_events: int = 10,
    seed: int = 11,
    num_entities: int = 3,
) -> List[Tuple[str, Job]]:
    """Deterministic add/remove event sequence over generated jobs.

    Jobs carry round-robin entity ids so the same trace also drives the
    hierarchical policy; every other policy ignores them.
    """
    trace = TraceGenerator(oracle=oracle).generate_static(
        num_jobs=num_initial + num_events, seed=seed
    )
    jobs = [job.with_entity(job.job_id % num_entities) for job in trace.jobs]
    rng = np.random.default_rng(seed)
    events: List[Tuple[str, Job]] = [("add", job) for job in jobs[:num_initial]]
    active = list(jobs[:num_initial])
    for job in jobs[num_initial:]:
        if len(active) > 3 and rng.random() < 0.5:
            victim = active.pop(int(rng.integers(0, len(active))))
            events.append(("remove", victim))
        events.append(("add", job))
        active.append(job)
    return events


@dataclass(frozen=True)
class DeltaSummary:
    """Aggregate view of one drained delta batch.

    Collapses a raw delta stream into the per-kind facts consumers check
    against engine state: which jobs entered/left, which job types had their
    estimates refined (``refined_all`` when a refinement could not be
    attributed), and the *final* advertised count per aggregation group
    (later :class:`TypeCountChanged` entries supersede earlier ones for the
    same key, matching how the engine emits them).
    """

    added_job_ids: Tuple[int, ...]
    removed_job_ids: Tuple[int, ...]
    refined_job_types: Tuple[str, ...]
    refined_all: bool
    group_counts: Tuple[Tuple[Tuple[object, ...], int], ...]


def summarize_deltas(deltas: Iterable[PolicyDelta]) -> DeltaSummary:
    """Fold a delta stream into a :class:`DeltaSummary`.

    This dispatch covers every kind in the :data:`PolicyDelta` union:
    ``test_delta_summary_reflects_every_delta_kind`` in
    ``tests/core/test_session.py`` feeds it one sample of each, so a new
    delta kind this chain ignores fails a test instead of being dropped.
    """
    added: List[int] = []
    removed: List[int] = []
    refined: List[str] = []
    refined_all = False
    counts: dict = {}
    for delta in deltas:
        if isinstance(delta, JobAdded):
            added.append(delta.job.job_id)
        elif isinstance(delta, JobRemoved):
            removed.append(delta.job_id)
        elif isinstance(delta, EstimateRefined):
            if delta.job_types is None:
                refined_all = True
            else:
                refined.extend(delta.job_types)
        elif isinstance(delta, TypeCountChanged):
            counts[delta.key] = delta.count
    return DeltaSummary(
        added_job_ids=tuple(added),
        removed_job_ids=tuple(removed),
        refined_job_types=tuple(sorted(set(refined))),
        refined_all=refined_all,
        group_counts=tuple(counts.items()),
    )


def _assert_delta_stream_consistent(
    spec: str, summary: DeltaSummary, active_ids: set
) -> None:
    """The drained delta batch must agree with the engine's active set.

    Jobs the stream advertises as (net) added must be active, and jobs it
    advertises as (net) removed must not be — a violation means the engine
    emitted a delta for churn it never applied, or dropped one it did.
    """
    added = set(summary.added_job_ids)
    removed = set(summary.removed_job_ids)
    ghost = (added - removed) - active_ids
    assert not ghost, f"{spec}: delta stream added unknown jobs {sorted(ghost)}"
    lingering = (removed - added) & active_ids
    assert not lingering, (
        f"{spec}: delta stream removed still-active jobs {sorted(lingering)}"
    )


def run_churn_equivalence(
    spec: str,
    oracle: ThroughputOracle,
    cluster: ClusterSpec,
    aggregation: str = "job",
    num_initial: int = 8,
    num_events: int = 10,
    seed: int = 11,
    min_steps: int = 5,
) -> Dict[str, int]:
    """Drive ``spec`` through a churn trace; its session must match fresh rebuilds.

    One long-lived session of ``make_policy(spec, aggregation=aggregation)``,
    fed its engine's delta stream, is compared at every step against a
    *fresh* per-job :class:`~repro.core.session.RebuildSession` on the same
    jobs; separate policy instances back the two sides so seeded randomized
    policies draw identically.  Every drained delta batch must agree with the
    active set and advertise the engine's group histogram.

    * ``aggregation="job"``: both sides solve one problem snapshot and must
      satisfy :func:`assert_session_equivalent`.
    * ``aggregation="type"``: the session is an
      :class:`~repro.core.aggregation.AggregatedSession` on a type-mode
      engine, the reference reads a second, per-job engine, and every step
      must satisfy :func:`assert_aggregation_equivalent` on the per-job
      snapshot.

    Returns step counters (``"steps"``; ``"exact"`` for ``"job"``) and, for
    ``"type"``, LP-size evidence: ``max_inner_rows`` is the largest row count
    of the session's inner matrix and ``max_active_types`` the largest
    concurrent group count, so callers can assert the LP scales with types.
    """
    from repro.core.aggregation import AggregatedSession

    aggregated = aggregation == "type"
    session_policy = make_policy(spec, aggregation=aggregation)
    reference_policy = make_policy(spec)
    engine = AllocationEngine(
        oracle, space_sharing=session_policy.space_sharing, aggregation=aggregation
    )
    engines = [engine]
    if aggregated:
        engines.append(AllocationEngine(oracle, space_sharing=reference_policy.space_sharing))
    reference_engine = engines[-1]
    active: Dict[int, Job] = {}
    session = None
    counters = {"steps": 0, "exact": 0, "max_inner_rows": 0, "max_active_types": 0}
    for action, job in churn_events(
        oracle, num_initial=num_initial, num_events=num_events, seed=seed
    ):
        for each in engines:
            if action == "add":
                each.add_job(job)
            else:
                each.remove_job(job.job_id)
        if action == "add":
            active[job.job_id] = job
        else:
            del active[job.job_id]
        if len(active) < 2:
            continue
        timing = {
            "steps_remaining": {
                job_id: job.total_steps * (0.25 + 0.75 * ((job_id % 4) / 4))
                for job_id, job in active.items()
            },
            "time_elapsed": {job_id: 1800.0 * (job_id % 3) for job_id in active},
            "current_time": 3600.0,
        }
        problem = PolicyProblem(
            jobs=dict(active), throughputs=engine.matrix(), cluster_spec=cluster, **timing
        )
        reference_problem = problem
        if aggregated:
            reference_problem = PolicyProblem(
                jobs=dict(active),
                throughputs=reference_engine.matrix(),
                cluster_spec=cluster,
                **timing,
            )
            reference_engine.drain_deltas()
        deltas = engine.drain_deltas()
        summary = summarize_deltas(deltas)
        _assert_delta_stream_consistent(spec, summary, set(active))
        for key, advertised in summary.group_counts:
            actual = engine.group_counts.get(key, 0)
            assert actual == advertised, (
                f"{spec}: delta stream advertises group {key!r} at count "
                f"{advertised} but the engine histogram says {actual}"
            )
        if session is None:
            session = session_policy.session(problem)
            assert isinstance(session, AggregatedSession) == aggregated, type(session).__name__
        else:
            session.apply(deltas)
        allocation = session.solve(problem)
        reference = RebuildSession(reference_policy, reference_problem).solve(
            reference_problem
        )
        if isinstance(session, AggregatedSession):
            assert_aggregation_equivalent(
                spec,
                reference_policy,
                reference_problem,
                allocation,
                reference,
                group_key=session_policy.aggregation_group_key,
            )
            counters["max_inner_rows"] = max(
                counters["max_inner_rows"], session.view.problem.throughputs.num_rows()
            )
            # Policies may refine the engine's type histogram (the hierarchical
            # key appends the entity), so the group-count evidence is the larger
            # of the engine histogram and the session's actual group partition.
            counters["max_active_types"] = max(
                counters["max_active_types"], len(engine.group_counts), len(session.view.groups)
            )
        elif assert_session_equivalent(spec, reference_policy, problem, allocation, reference):
            counters["exact"] += 1
        counters["steps"] += 1
    steps = counters["steps"]
    assert steps >= min_steps, f"{spec}: churn trace produced only {steps} comparisons"
    return counters

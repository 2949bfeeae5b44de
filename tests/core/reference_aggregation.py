"""Scalar reference of type aggregation: the dict-walking ``build`` and ``expand``.

This is the code ``repro.core.aggregation`` shipped before the aggregated view
became an incrementally maintained index and the expansion one gather-multiply:
every build re-sorts the ids, keys every job, calls ``dataclasses.replace`` for
every group and re-aggregates the matrix; every expansion divides 1.0 through
``proportional_split`` per row and writes one ``row * share`` per member into a
dict that ``Allocation.__init__`` re-normalises.  Kept verbatim (as functions
returning plain values instead of a view object) as the differential oracle of
``test_aggregation_equivalence.py``.  Do not optimise it: its value is that it
holds no state between calls that could go stale.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregation import GroupKey, aggregation_key
from repro.core.allocation import Allocation
from repro.core.problem import PolicyProblem
from repro.core.throughput_matrix import JobCombination, ThroughputMatrix
from repro.exceptions import ConfigurationError
from repro.workloads.job import Job


def proportional_split(total: float, weights: Sequence[float]) -> List[float]:
    """Split ``total`` proportionally to non-negative ``weights``.

    Equal weights yield an equal split; an all-zero weight vector falls back
    to the equal split (no information to prefer one member).  The returned
    shares always sum to ``total`` exactly up to floating round-off.
    """
    if len(weights) == 0:
        raise ConfigurationError("cannot split a total among zero members")
    array = np.asarray(weights, dtype=float)
    if np.any(array < 0) or not np.all(np.isfinite(array)):
        raise ConfigurationError(f"split weights must be finite and >= 0, got {weights}")
    mass = float(array.sum())
    if mass <= 0.0:
        return [total / len(array)] * len(array)
    # Normalize before scaling: w/mass is exact for equal weights even in
    # the subnormal range, whereas total*w can lose precision first.
    return [total * float(w / mass) for w in array]


def weighted_member_split(
    total: float, member_ids: Sequence[int], weights: Optional[Mapping[int, float]]
) -> Dict[int, float]:
    """Per-member shares of ``total`` keyed by job id.

    ``weights`` maps job ids to split weights (missing ids weigh 1.0);
    ``None`` means an equal split.
    """
    if weights is None:
        shares = proportional_split(total, [1.0] * len(member_ids))
    else:
        shares = proportional_split(
            total, [float(weights.get(job_id, 1.0)) for job_id in member_ids]
        )
    return {job_id: share for job_id, share in zip(member_ids, shares)}


class ReferenceView(NamedTuple):
    """What the reference build derives from one per-job problem."""

    base: PolicyProblem
    problem: PolicyProblem
    groups: Dict[GroupKey, Tuple[int, ...]]
    representatives: Dict[GroupKey, int]


def reference_build(
    problem: PolicyProblem, key: Optional[Callable[[Job], GroupKey]] = None
) -> ReferenceView:
    """Aggregate ``problem`` by ``key`` from scratch, one job at a time."""
    if problem.group_counts is not None:
        raise ConfigurationError("problem is already type-aggregated (group_counts is set)")
    key_fn: Callable[[Job], GroupKey] = aggregation_key if key is None else key
    groups: Dict[GroupKey, List[int]] = {}
    for job_id in sorted(problem.jobs):
        groups.setdefault(key_fn(problem.jobs[job_id]), []).append(job_id)
    frozen_groups: Dict[GroupKey, Tuple[int, ...]] = {
        key_value: tuple(sorted(members)) for key_value, members in groups.items()
    }
    representatives = {key: members[0] for key, members in frozen_groups.items()}
    matrix = reference_aggregate_matrix(
        problem.throughputs, problem.jobs, frozen_groups, representatives
    )

    jobs: Dict[int, Job] = {}
    steps_remaining: Dict[int, float] = {}
    time_elapsed: Dict[int, float] = {}
    group_counts: Dict[int, int] = {}
    for key, members in frozen_groups.items():
        rep = representatives[key]
        count = len(members)
        rep_job = problem.jobs[rep]
        jobs[rep] = replace(rep_job, priority_weight=rep_job.priority_weight * count)
        steps_remaining[rep] = sum(problem.remaining_steps(m) for m in members)
        time_elapsed[rep] = max(problem.elapsed(m) for m in members)
        group_counts[rep] = count

    aggregated = PolicyProblem(
        jobs=jobs,
        throughputs=matrix,
        cluster_spec=problem.cluster_spec,
        steps_remaining=steps_remaining,
        time_elapsed=time_elapsed,
        current_time=problem.current_time,
        group_counts=group_counts,
    )
    return ReferenceView(problem, aggregated, frozen_groups, representatives)


def reference_aggregate_matrix(
    matrix: ThroughputMatrix,
    jobs: Mapping[int, Job],
    groups: Mapping[GroupKey, Tuple[int, ...]],
    representatives: Mapping[GroupKey, int],
) -> ThroughputMatrix:
    """Collapse a per-job matrix to representative rows, walking every combination."""
    reps = sorted(representatives.values())
    singles = np.vstack([matrix.isolated_throughputs(rep) for rep in reps])
    type_of = {rep: jobs[rep].job_type for rep in reps}
    # Canonical throughput row per sorted job-type pair, oriented so the
    # first half carries the lexicographically smaller type.
    canonical: Dict[Tuple[str, str], np.ndarray] = {}
    for combination in matrix.combinations:
        if len(combination) != 2:
            continue
        first, second = combination
        type_first = jobs[first].job_type
        type_second = jobs[second].job_type
        if type_first <= type_second:
            type_pair = (type_first, type_second)
            row = matrix.row(combination)
        else:
            type_pair = (type_second, type_first)
            row = matrix.row(combination)[::-1]
        canonical.setdefault(type_pair, row)
    pairable: Dict[str, List[int]] = {}
    members_of_rep: Dict[int, int] = {}
    for key, members in groups.items():
        rep = representatives[key]
        members_of_rep[rep] = len(members)
        if int(jobs[rep].scale_factor) == 1:
            pairable.setdefault(type_of[rep], []).append(rep)
    pairs: Dict[JobCombination, np.ndarray] = {}
    for (type_a, type_b), row in sorted(canonical.items(), key=lambda item: item[0]):
        if type_a == type_b:
            same_type = sorted(pairable.get(type_a, []))
            for position, rep_a in enumerate(same_type):
                if members_of_rep[rep_a] >= 2:
                    pairs[(rep_a, rep_a)] = row
                for rep_b in same_type[position + 1 :]:
                    pairs[(rep_a, rep_b)] = row
            continue
        for rep_a in sorted(pairable.get(type_a, [])):
            for rep_b in sorted(pairable.get(type_b, [])):
                low, high = sorted((rep_a, rep_b))
                # Position 0 of the aggregated row must carry the group
                # of the smaller representative.
                pairs[(low, high)] = row if type_of[low] == type_a else row[::-1]
    return ThroughputMatrix.from_parts(matrix.registry, reps, singles, pairs)


def reference_expand(
    view: ReferenceView,
    aggregated: Allocation,
    weights: Optional[Mapping[int, float]] = None,
) -> Allocation:
    """Recover a per-job allocation from group-total rows, one member at a time."""
    entries: Dict[JobCombination, np.ndarray] = {}

    def accumulate(key: JobCombination, values: np.ndarray) -> None:
        if key in entries:
            entries[key] = entries[key] + values
        else:
            entries[key] = values

    rep_to_key = {rep: key for key, rep in view.representatives.items()}
    for combination in aggregated.combinations:
        row = aggregated.row(combination)
        if len(combination) == 1:
            members = view.groups[rep_to_key[combination[0]]]
            shares = weighted_member_split(1.0, members, weights)
            for member, share in shares.items():
                accumulate((member,), row * share)
            continue
        first, second = combination
        if first == second:
            members = view.groups[rep_to_key[first]]
            pair_ids = [
                (members[i], members[j])
                for i in range(len(members))
                for j in range(i + 1, len(members))
            ]
            pair_weights = (
                None
                if weights is None
                else [
                    float(weights.get(a, 1.0)) * float(weights.get(b, 1.0))
                    for a, b in pair_ids
                ]
            )
            shares = proportional_split(
                1.0, pair_weights if pair_weights is not None else [1.0] * len(pair_ids)
            )
            for (a, b), share in zip(pair_ids, shares):
                accumulate((a, b), row * share)
            continue
        members_first = view.groups[rep_to_key[first]]
        members_second = view.groups[rep_to_key[second]]
        shares_first = weighted_member_split(1.0, members_first, weights)
        shares_second = weighted_member_split(1.0, members_second, weights)
        for member_a, share_a in shares_first.items():
            for member_b, share_b in shares_second.items():
                accumulate(tuple(sorted((member_a, member_b))), row * (share_a * share_b))

    return Allocation(aggregated.registry, entries, scale_factors=view.base.scale_factors())

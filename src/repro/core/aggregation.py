"""Type-level aggregation: LP size independent of the number of jobs.

The paper observes (Section 5.3) that allocation-computation time grows with
the number of *active jobs*, while the structure of the optimization only
depends on the much smaller number of distinct *job types*: two jobs with the
same model/batch-size configuration, worker count and priority weight are
interchangeable from the solver's point of view — they share throughput rows,
normalizers and validity structure.  This module collapses such jobs into one
**group** per :func:`aggregation_key` and solves the policy LP over group
**totals**:

* the aggregated :class:`~repro.core.problem.PolicyProblem` carries one
  representative job per group (the smallest member id), with
  ``group_counts`` recording the group size ``n_g``;
* the representative's per-job validity right-hand side becomes ``n_g``
  (handled by :class:`~repro.core.policy.AllocationVariables` whenever
  ``group_counts`` is set), so its decision variables hold the *sum* of the
  member allocations;
* the representative's ``priority_weight`` is baked to ``w · n_g`` so the
  max-min-fairness epigraph over group totals equals the true per-member
  fairness level (the equal-share normalizer does not depend on the number of
  jobs, so ``scale_factor / (w·n_g · ref) · total = scale_factor / (w · ref)
  · (total / n_g)`` — exactly the per-member term under an equal split);
* same-group colocation is modelled by a single ``(rep, rep)`` pair row
  (allowed by :class:`~repro.core.throughput_matrix.ThroughputMatrix` for
  pairs only): the duplicate membership contributes coefficient 2 to the
  group's job-total constraint, matching the two member slots such a pair
  occupies.

Recovering a per-job allocation is a **proportional split**: each group's
total is divided among its members (equally by default — optimal for every
supported objective by symmetry — or by caller-supplied weights such as
``steps_remaining`` where an objective requires it).

The same compression is exact for the *iterative* water-filling family
(``max_min_fairness_water_filling`` and ``hierarchical``): members of a group
share one water level, so the level loop of
:mod:`repro.core.water_filling` runs over group representatives — one floor
row and one level row per active group, with the baked ``w · n_g`` weight
making the epigraph and the analytic level bumps track group *totals* — and
splits equally inside each group after the last level converges.  Policies
may refine the grouping through
:meth:`~repro.core.policy.Policy.aggregation_group_key` (the hierarchical
policy appends the entity, so a group never straddles entity boundaries and
FIFO-internal entities degrade to singleton groups).

Supported policy bases are listed in :data:`AGGREGATION_SUPPORTED_BASES`;
policies whose objectives read *per-job* state that cannot be folded into
the group key (e.g. SLO deadlines) are excluded.

Cost.  The LP is small whatever the job count, and the code around it does
not put the job count back: a view is built *from the previous one*
(:meth:`AggregatedProblem.build`: the snapshots' jobs are diffed in C, only
the groups a job left or joined are re-derived, and those jobs are spliced
into the last view's :class:`_JobIndex`), and the expansion is one gather
through that index.  What stays per job is C-level: the diff, the copies a
splice makes and the gather.  The per-group steps left and elapsed times are
reduced only if a policy reads them.  An event costs the groups it touched:

* *count-only* — every touched group keeps its representative and no group
  came or went (a member other than the smallest id joined or left): the
  group order and the representatives are the last view's, only the touched
  groups' ``w · n_g`` representatives are remade, and without pair rows the
  aggregated matrix is the last view's too, which the inner session takes
  as a count-only update
  (:meth:`~repro.core.policy.AllocationVariables.update_to`: no row diff;
  the moved groups' job-row right-hand sides and the caps of the rows
  holding them, found through the job index of the dense rows);
* *group-changing* — a group came, went or changed its representative: the
  groups are re-sorted, the representatives re-derived and the aggregated
  matrix rebuilt from the representatives' rows, and the inner session diffs
  the rows by key.  A matrix with pair rows is rebuilt and diffed on every
  event, count-only or not: its pair rows hang on the group sizes.

``tests/core/reference_aggregation.py`` is the per-job, per-member code this
replaced, kept as the oracle: both agree bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, filterfalse, repeat
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Iterable, Iterator, KeysView, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.policy import Policy
from repro.core.problem import PolicyProblem
from repro.core.session import PolicySession
from repro.core.throughput_matrix import JobCombination, ThroughputMatrix
from repro.exceptions import ConfigurationError
from repro.solver.lp import LinearProgram
from repro.workloads.job import Job

__all__ = [
    "AggregationKey",
    "GroupKey",
    "aggregation_key",
    "AGGREGATION_SUPPORTED_BASES",
    "supports_type_aggregation",
    "AggregatedProblem",
    "AggregatedSession",
]

#: Grouping key: jobs are interchangeable when they share a model/batch-size
#: configuration, a worker count and a priority class.
AggregationKey = Tuple[str, int, float]

#: A policy-refined grouping key (see ``Policy.aggregation_group_key``):
#: always starts with the :data:`AggregationKey` triple and may append
#: policy-specific components (entity id, FIFO rank, ...).
GroupKey = Tuple[object, ...]

#: Policy bases whose objectives are exact over group totals: the one-shot
#: LP bases (LAS is ``max_min_fairness``, the registry name) plus the
#: iterative water-filling family, whose level loops run over group
#: representatives.  ``min_cost_slo`` and the remaining bases are excluded
#: because SLO deadlines / finish-time state are per-job and cannot be
#: folded into the group key.
AGGREGATION_SUPPORTED_BASES = frozenset(
    {
        "max_min_fairness",
        "max_total_throughput",
        "min_cost",
        "max_min_fairness_water_filling",
        "hierarchical",
    }
)

_TOTAL_STEPS = attrgetter("total_steps")


def _no_time(job: Job) -> float:
    return 0.0


def aggregation_key(job: Job) -> AggregationKey:
    """The group a job belongs to: ``(job_type, scale_factor, priority_weight)``."""
    return (job.job_type, int(job.scale_factor), float(job.priority_weight))


def supports_type_aggregation(base: str) -> bool:
    """Whether policy base ``base`` supports ``aggregation="type"`` exactly."""
    return base in AGGREGATION_SUPPORTED_BASES


def _shares(size: int, weights: Optional[np.ndarray]) -> np.ndarray:
    """How 1.0 divides among ``size`` members: by ``weights``, or equally (none, or all zero)."""
    if size == 0:
        raise ConfigurationError("cannot split a total among zero members")
    if weights is not None:
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ConfigurationError(f"split weights must be finite and >= 0, got {weights}")
        mass = float(weights.sum())
        if mass > 0.0:
            # Normalize before scaling: w/mass is exact for equal weights even
            # in the subnormal range.
            return weights / mass
    return np.full(size, 1.0 / size)


@dataclass(frozen=True)
class _JobIndex:
    """The base problem's jobs as parallel sequences, in ascending job-id order.

    What :meth:`AggregatedProblem.expand` gathers through; a function of the
    group partition alone, so a view carries its predecessor's while no job
    came or went, and splices the jobs that did into it otherwise
    (:meth:`spliced`).  Groups count in ascending-representative order (the
    order of ``groups`` and of the aggregated problem's jobs).
    """

    job_ids: Tuple[int, ...]
    singles: Tuple[JobCombination, ...]  # (job_id,) per job: the expanded singleton rows
    demand: Tuple[int, ...]  # scale factor per job (its representative's: the key bakes it)
    scale_factors: Dict[int, int]  # ``demand`` keyed by job id
    group_of: np.ndarray  # group ordinal per job
    counts: np.ndarray  # members per group
    equal_share: np.ndarray  # 1 / n_g per job
    rep_positions: np.ndarray  # position of each group's representative in ``job_ids``
    rep_singles: Tuple[JobCombination, ...]  # (representative,) per group

    @classmethod
    def of(cls, members: List[Tuple[int, ...]], rep_jobs: Mapping[int, Job]) -> "_JobIndex":
        """Index the partition ``members`` (ascending representative, ascending inside)."""
        counts = np.fromiter(map(len, members), np.intp, len(members))
        group_major = np.fromiter(chain.from_iterable(members), np.int64, int(counts.sum()))
        order = np.argsort(group_major)
        group_of = np.repeat(np.arange(len(members)), counts)[order]
        scales = np.fromiter(
            (job.scale_factor for job in rep_jobs.values()), np.int64, len(members)
        )
        job_ids = tuple(group_major[order].tolist())
        demand = tuple(scales[group_of].tolist())
        return cls._assemble(
            job_ids, tuple(zip(job_ids)), demand, dict(zip(job_ids, demand)), group_of, counts,
            rep_jobs,
        )

    def spliced(
        self,
        left: Iterable[int],
        joined: Mapping[int, GroupKey],
        before: Iterable[GroupKey],
        groups: Mapping[GroupKey, Tuple[int, ...]],
        rep_jobs: Mapping[int, Job],
    ) -> "_JobIndex":
        """This index with the jobs ``left`` taken out and those ``joined`` put in.

        ``before`` is this index's group keys in order, ``groups`` and
        ``rep_jobs`` the new partition; ``joined`` maps each arriving job to
        its group key.  The Python work is the event's jobs, a bisection
        each, and one step per group; the rest is C-level copies of the
        per-job sequences.
        """
        ordinal = dict(zip(groups, range(len(groups))))
        remap = np.fromiter(map(ordinal.get, before, repeat(-1)), np.intp)
        job_ids, singles, demand = list(self.job_ids), list(self.singles), list(self.demand)
        group_of, scale_factors = remap[self.group_of].tolist(), dict(self.scale_factors)
        removed = sorted((bisect_left(self.job_ids, job_id) for job_id in left), reverse=True)
        for position in removed:
            del scale_factors[job_ids[position]]
            del job_ids[position], singles[position], demand[position], group_of[position]
        reps = list(rep_jobs.values())
        for job_id, group_key in sorted(joined.items()):
            group = ordinal[group_key]
            position, scale = bisect_left(job_ids, job_id), int(reps[group].scale_factor)
            job_ids.insert(position, job_id)
            singles.insert(position, (job_id,))
            demand.insert(position, scale)
            group_of.insert(position, group)
            scale_factors[job_id] = scale
        return self._assemble(
            tuple(job_ids), tuple(singles), tuple(demand), scale_factors,
            np.fromiter(group_of, np.intp, len(group_of)),
            np.fromiter(map(len, groups.values()), np.intp, len(groups)), rep_jobs,
        )

    @classmethod
    def _assemble(
        cls,
        job_ids: Tuple[int, ...],
        singles: Tuple[JobCombination, ...],
        demand: Tuple[int, ...],
        scale_factors: Dict[int, int],
        group_of: np.ndarray,
        counts: np.ndarray,
        rep_jobs: Mapping[int, Job],
    ) -> "_JobIndex":
        """The index of the per-job sequences and the partition's counts and representatives."""
        return cls(
            job_ids=job_ids,
            singles=singles,
            demand=demand,
            scale_factors=scale_factors,
            group_of=group_of,
            counts=counts,
            equal_share=(1.0 / counts)[group_of],
            rep_positions=np.fromiter(
                map(bisect_left, repeat(job_ids, len(rep_jobs)), rep_jobs), np.intp, len(rep_jobs)
            ),
            rep_singles=tuple(zip(rep_jobs)),
        )

    def group_members(self) -> List[np.ndarray]:
        """Per group, its members' positions in ``job_ids``, ascending."""
        return np.split(np.argsort(self.group_of, kind="stable"), np.cumsum(self.counts)[:-1])


class _Deferred(Mapping[int, float]):
    """A mapping over the keys of ``keys`` whose values ``compute`` makes on the first read.

    ``keys()`` is ``keys``' own view, so a comparison of key sets stays in C.
    """

    def __init__(self, keys: Mapping[int, object], compute: Callable[[], Dict[int, float]]) -> None:
        self._keys, self._compute = keys, compute
        self._values: Optional[Dict[int, float]] = None

    def __getitem__(self, key: int) -> float:
        if self._values is None:
            self._values = self._compute()
        return self._values[key]

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self) -> KeysView[int]:
        return self._keys.keys()


def _per_group(
    groups: Mapping[GroupKey, Tuple[int, ...]],
    reduce: Callable[[Iterable[float]], float],
    values: Mapping[int, float],
    jobs: Mapping[int, Job],
    default: Callable[[Job], float],
) -> Dict[int, float]:
    """Per group, keyed by its representative: ``reduce`` over its members' values, in order.

    A job ``values`` lacks has the value ``default`` gives it.
    """
    if len(values) != len(jobs):
        values = {**dict(zip(jobs, map(default, jobs.values()))), **values}
    value_of = values.__getitem__
    return {members[0]: float(reduce(map(value_of, members))) for members in groups.values()}


@dataclass(frozen=True)
class AggregatedProblem:
    """A type-aggregated view over a per-job :class:`PolicyProblem`.

    Attributes:
        base: The original one-row-per-job problem.
        problem: The aggregated problem (one representative per group,
            ``group_counts`` set) handed to the policy's inner session.
        groups: Sorted member job ids per group key, in ascending order of
            the groups' representatives.
        representatives: Representative (smallest) member id per group key,
            in the same order.
    """

    base: PolicyProblem
    problem: PolicyProblem
    groups: Mapping[GroupKey, Tuple[int, ...]]
    representatives: Mapping[GroupKey, int]
    _key_fn: Callable[[Job], GroupKey] = field(repr=False, compare=False)
    _index: _JobIndex = field(repr=False, compare=False)

    def __deepcopy__(self, memo: dict) -> "AggregatedProblem":
        return self  # immutable: a deep copy (a policy-session clone) shares it

    @classmethod
    def build(
        cls,
        problem: PolicyProblem,
        previous: Optional["AggregatedProblem"] = None,
        key: Optional[Callable[[Job], GroupKey]] = None,
    ) -> "AggregatedProblem":
        """Aggregate ``problem`` by ``key`` (default :func:`aggregation_key`).

        ``key`` is the owning policy's
        :meth:`~repro.core.policy.Policy.aggregation_group_key`, a pure
        function of the job; any refinement must still keep members
        interchangeable (same job type, scale factor and priority weight).

        ``previous`` is the last solve's view under the same ``key``.  The
        result is the same with or without it; with it, the work is what
        changed: the two snapshots' ``jobs`` are diffed (a ``Job`` object
        swapped under its id leaves and arrives), only the groups a job left
        or joined are re-derived, those jobs are spliced into the last job
        index, and the aggregated matrix is carried over while the
        representatives and their rows stand.  Each group's
        ``steps_remaining`` / ``time_elapsed`` are reduced from this snapshot
        when first read (they move between any two snapshots, and the
        supported policies do not read them).  Groups stay in
        ascending-representative order either way — the order of the
        aggregated ``jobs``, hence of the LP's rows, hence what decides the
        vertex of a degenerate solve.
        """
        if problem.group_counts is not None:
            raise ConfigurationError(
                "problem is already type-aggregated (group_counts is set)"
            )
        key_fn: Callable[[Job], GroupKey] = aggregation_key if key is None else key
        jobs = problem.jobs
        if previous is not None and previous._key_fn != key_fn:
            previous = None
        if previous is None:
            groups: Dict[GroupKey, Tuple[int, ...]] = {}
            left: Mapping[int, Job] = {}
            joined = jobs
        else:
            groups = dict(previous.groups)
            before = previous.base.jobs
            joined = dict(filterfalse(before.items().__contains__, jobs.items()))
            left = {
                job_id: before[job_id]
                for job_id in (before.keys() - jobs.keys()) | (joined.keys() & before.keys())
            }

        touched: Dict[GroupKey, List[int]] = {}

        def members_of(group_key: GroupKey) -> List[int]:
            members = touched.get(group_key)
            if members is None:
                members = touched[group_key] = list(groups.get(group_key, ()))
            return members

        for job_id, job in left.items():
            try:
                members_of(key_fn(job)).remove(job_id)
            except ValueError:
                raise ConfigurationError(
                    f"job {job_id} is not in the group its key names: the aggregation "
                    "key must be a pure function of the job"
                ) from None
        joined_keys = {job_id: key_fn(job) for job_id, job in joined.items()}
        for job_id, group_key in joined_keys.items():
            insort(members_of(group_key), job_id)
        reordered = False
        for group_key, members in touched.items():
            was = groups.get(group_key)
            if members:
                groups[group_key] = tuple(members)
            else:
                del groups[group_key]
            reordered |= was is None or not members or was[0] != members[0]
        if reordered:
            # Member tuples are disjoint, so they order by their first id.
            groups = dict(sorted(groups.items(), key=itemgetter(1)))

        carried = {} if previous is None else previous.problem.jobs
        rep_jobs: Dict[int, Job] = {}
        for group_key, members in groups.items():
            rep = members[0]
            if group_key in touched:
                rep_job = jobs[rep]
                rep_jobs[rep] = replace(
                    rep_job, priority_weight=rep_job.priority_weight * len(members)
                )
            else:
                rep_jobs[rep] = carried[rep]
        if previous is None:
            index = _JobIndex.of(list(groups.values()), rep_jobs)
        elif touched:
            index = previous._index.spliced(left, joined_keys, previous.groups, groups, rep_jobs)
        else:
            index = previous._index

        aggregated = PolicyProblem(
            jobs=rep_jobs,
            throughputs=cls._aggregated_matrix(problem, previous, rep_jobs, index, bool(touched)),
            cluster_spec=problem.cluster_spec,
            # Per group: the sum of steps left and the longest elapsed time, when first read.
            steps_remaining=_Deferred(
                rep_jobs,
                partial(_per_group, groups, sum, problem.steps_remaining, jobs, _TOTAL_STEPS),
            ),
            time_elapsed=_Deferred(
                rep_jobs, partial(_per_group, groups, max, problem.time_elapsed, jobs, _no_time)
            ),
            current_time=problem.current_time,
            group_counts=dict(zip(rep_jobs, index.counts.tolist())),
        )
        return cls(
            base=problem,
            problem=aggregated,
            groups=groups,
            representatives={group_key: members[0] for group_key, members in groups.items()},
            _key_fn=key_fn,
            _index=index,
        )

    @staticmethod
    def _aggregated_matrix(
        problem: PolicyProblem,
        previous: Optional["AggregatedProblem"],
        rep_jobs: Mapping[int, Job],
        index: _JobIndex,
        touched: bool,
    ) -> ThroughputMatrix:
        """Collapse the per-job matrix to representative rows — the last view's while still right.

        Singleton rows come from each representative (members share oracle
        rows by construction of the key): without pair rows the last matrix
        is right while the representatives and their rows are what they
        were.  Pair rows also depend on which groups have two members and
        which member pairs the source carries, so with them it is carried
        over only for the same source matrix and partition.

        Pair rows are replicated at the *job-type* level: colocation
        throughput depends only on the two job types, so one canonical row
        per (sorted) type pair — taken from whichever member pair the source
        matrix carries — is emitted for every pair of single-worker groups
        with matching types: a sorted ``(rep_g, rep_h)`` row for distinct
        groups, the duplicate ``(rep, rep)`` row for a group with >= 2
        members.  This makes the aggregated matrix independent of *which*
        member pairs the source happened to instantiate (the type-mode engine
        keeps only one representative pair per type pair).
        """
        matrix = problem.throughputs
        reps = tuple(rep_jobs)
        singles = matrix.singles_matrix()[1][index.rep_positions]
        if previous is not None:
            last = previous.problem.throughputs
            paired = matrix.has_space_sharing() or last.has_space_sharing()
            if (
                last.job_ids == reps
                and last.registry is matrix.registry
                and np.array_equal(last.singles_matrix()[1], singles)
                and (not paired or (matrix is previous.base.throughputs and not touched))
            ):
                return last
        if not matrix.has_space_sharing():
            return ThroughputMatrix.from_parts(matrix.registry, reps, singles)

        jobs = problem.jobs
        type_of = {rep: job.job_type for rep, job in rep_jobs.items()}
        # Canonical throughput row per sorted job-type pair, oriented so the
        # first half carries the lexicographically smaller type.
        canonical: Dict[Tuple[str, str], np.ndarray] = {}
        for (first, second), row in zip(*matrix.pairs_matrix()):
            type_first = jobs[first].job_type
            type_second = jobs[second].job_type
            if type_first <= type_second:
                canonical.setdefault((type_first, type_second), row)
            else:
                canonical.setdefault((type_second, type_first), row[::-1])
        # Reps of single-worker groups per job type (pairs only ever involve
        # single-worker jobs; the key bakes scale_factor, so one member being
        # single-worker means all are), ascending.
        pairable: Dict[str, List[int]] = {}
        for rep, job in rep_jobs.items():
            if int(job.scale_factor) == 1:
                pairable.setdefault(type_of[rep], []).append(rep)
        members_of_rep = dict(zip(reps, index.counts.tolist()))
        pairs: Dict[JobCombination, np.ndarray] = {}
        for (type_a, type_b), row in sorted(canonical.items(), key=itemgetter(0)):
            if type_a == type_b:
                same_type = pairable.get(type_a, [])
                for position, rep_a in enumerate(same_type):
                    if members_of_rep[rep_a] >= 2:
                        pairs[(rep_a, rep_a)] = row
                    for rep_b in same_type[position + 1 :]:
                        pairs[(rep_a, rep_b)] = row
                continue
            for rep_a in pairable.get(type_a, []):
                for rep_b in pairable.get(type_b, []):
                    low, high = sorted((rep_a, rep_b))
                    # Position 0 of the aggregated row must carry the group
                    # of the smaller representative.
                    pairs[(low, high)] = row if type_of[low] == type_a else row[::-1]
        return ThroughputMatrix.from_parts(matrix.registry, reps, singles, pairs)

    # -- recovery ----------------------------------------------------------------
    def expand(
        self,
        aggregated: Allocation,
        weights: Optional[Mapping[int, float]] = None,
    ) -> Allocation:
        """Recover a per-job allocation from group-total rows.

        Each aggregated row's time fractions are divided among the member
        (pairs) it stands for: a singleton row among the ``n_g`` members, a
        cross-group pair among the ``n_g · n_h`` member pairs, a same-group
        ``(rep, rep)`` row among the ``C(n_g, 2)`` unordered member pairs.
        ``weights`` (job id → weight, default equal) biases the split inside
        each group; the default equal split is the one proven optimal for the
        supported objectives and always yields a valid per-job allocation.

        Array code: all singleton rows are one gather of the aggregated
        matrix through the job index times a share column, a pair row the
        same over the index pairs of its member lists, and one ``lexsort``
        puts pair rows into sorted-combination order.
        """
        index = self._index
        combinations = aggregated.combinations
        row_of = dict(zip(combinations, range(len(combinations))))
        try:
            single_rows = np.fromiter(
                map(row_of.__getitem__, index.rep_singles), np.intp, len(index.rep_singles)
            )
        except KeyError as error:
            raise ConfigurationError(
                f"allocation has no row {error.args[0]} for a group representative: "
                "it is not over this view's aggregated problem"
            ) from None
        num_jobs = len(index.job_ids)
        paired = len(combinations) > len(single_rows)
        by_group = index.group_members() if paired or weights is not None else []
        weight: Optional[np.ndarray] = None
        if weights is None:
            share = index.equal_share
        else:
            weight = np.fromiter(
                (weights.get(job_id, 1.0) for job_id in index.job_ids), float, num_jobs
            )
            share = np.empty(num_jobs)
            for members in by_group:
                share[members] = _shares(len(members), weight[members])
        matrix = aggregated.matrix
        rows = matrix[single_rows[index.group_of]] * share[:, None]
        if not paired:
            return Allocation.from_matrix(
                aggregated.registry,
                index.singles,
                rows,
                scale_factors=index.scale_factors,
                job_ids=index.job_ids,
                demand=index.demand,
            )

        # Pair rows, as positions into the job index: ``low`` < ``high``.
        ordinal = dict(zip(self.problem.jobs, range(len(by_group))))
        lows: List[np.ndarray] = []
        highs: List[np.ndarray] = []
        blocks = [rows]
        for combination, row in row_of.items():
            if len(combination) == 1:
                continue
            first, second = (by_group[ordinal[rep]] for rep in combination)
            if combination[0] == combination[1]:
                upper, lower = np.triu_indices(len(first), 1)
                low, high = first[upper], first[lower]
                pair_share = _shares(
                    len(low), None if weight is None else weight[low] * weight[high]
                )
            else:
                left = np.repeat(first, len(second))
                right = np.tile(second, len(first))
                low, high = np.minimum(left, right), np.maximum(left, right)
                pair_share = share[left] * share[right]
            lows.append(low)
            highs.append(high)
            blocks.append(pair_share[:, None] * matrix[row])
        low, high = np.concatenate(lows), np.concatenate(highs)
        # Sorted-combination order: by first job, a singleton before its pairs.
        order = np.lexsort(
            (
                np.concatenate((np.full(num_jobs, -1), high)),
                np.concatenate((np.arange(num_jobs), low)),
            )
        )
        ids, scales = np.asarray(index.job_ids), np.asarray(index.demand)
        unsorted = index.singles + tuple(zip(ids[low].tolist(), ids[high].tolist()))
        demand = np.concatenate((scales, np.maximum(scales[low], scales[high])))
        return Allocation.from_matrix(
            aggregated.registry,
            tuple(map(unsorted.__getitem__, order.tolist())),
            np.concatenate(blocks)[order],
            scale_factors=index.scale_factors,
            job_ids=index.job_ids,
            demand=tuple(demand[order].tolist()),
        )


class AggregatedSession(PolicySession):
    """Session adapter running a policy's own session over the aggregated view.

    ``Policy.session`` returns this wrapper when ``policy.aggregation ==
    "type"`` and the problem is not yet aggregated.  Each solve derives the
    :class:`AggregatedProblem` view of the per-job snapshot from the last
    solve's view (the work is the jobs that came or went and the groups they
    touched — see :meth:`AggregatedProblem.build`), feeds it to the policy's
    inner incremental session — the LP only ever sees the type-level rows —
    and expands the group-total solution to per-job shares in one gather.
    Deltas — including :class:`~repro.core.session.TypeCountChanged` — are
    advisory, exactly as for per-job sessions: the snapshot is the truth, and
    the view diff against it is what drives the inner session's updates.
    """

    def __init__(self, policy: Policy, problem: PolicyProblem) -> None:
        super().__init__(policy, problem)
        self._view = AggregatedProblem.build(problem, key=policy.aggregation_group_key)
        self._inner = policy._make_session(self._view.problem)

    @property
    def view(self) -> AggregatedProblem:
        """The most recent aggregated view (exposed for tests/diagnostics)."""
        return self._view

    @property
    def inner(self) -> PolicySession:
        """The inner per-representative session (for LP-size diagnostics)."""
        return self._inner

    def programs(self) -> Iterator[LinearProgram]:
        return self._inner.programs()

    def _refresh_view(self, problem: PolicyProblem) -> None:
        if problem is not self._view.base or self._pending:
            self._view = AggregatedProblem.build(
                problem, previous=self._view, key=self._policy.aggregation_group_key
            )

    def _prepare(self, problem: PolicyProblem) -> None:
        self._refresh_view(problem)
        self._inner.prepare(self._view.problem)

    def _solve(self, problem: PolicyProblem) -> Allocation:
        self._refresh_view(problem)
        aggregated = self._inner.solve(self._view.problem)
        return self._view.expand(aggregated)

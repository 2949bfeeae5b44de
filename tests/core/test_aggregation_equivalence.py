"""The index-based aggregated view against the dict-walking code it replaced.

``reference_aggregation.py`` holds the old ``build`` / ``expand`` verbatim: a
from-scratch regrouping per build, one ``row * share`` per member per row.
Three groups of tests:

* **expand** — Hypothesis over group structures (singleton groups, groups of
  2 / 3 / 7, multi-worker groups, cross-group and same-group pair rows): the
  gather-multiply expansion equals the reference *bit for bit* — combinations,
  matrix, scale factors — for the equal split and for weighted splits (the
  array code keeps each reduction on the same elements in the same order), and
  the job ids / per-row demand it hands the allocation are what the allocation
  would derive;
* **build** — random add / remove / replace / resize / refine sequences: after
  every step ``build(problem, previous=view)`` equals ``build(problem)`` and the
  reference in every field, dict orders included, for the default key and for
  the hierarchical policy's entity-refined one;
* **counts** — over a ``round_las_type``-shaped run: ``dataclasses.replace``
  runs once per group an event touched, the matrix is not re-aggregated while
  the representatives stand, and the work ``expand`` does in Python is bounded
  by the number of groups, not jobs.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from reference_aggregation import reference_build, reference_expand

from repro.cluster import ClusterSpec
from repro.core import (
    AggregatedProblem,
    Allocation,
    EntitySpec,
    HierarchicalPolicy,
    PolicyProblem,
    ThroughputMatrix,
    aggregation,
    make_policy,
)
from repro.core.throughput_matrix import build_throughput_matrix
from repro.exceptions import ConfigurationError
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.workloads import Job, ThroughputOracle, TraceGenerator

_ORACLE = ThroughputOracle()
_REGISTRY = _ORACLE.registry
_JOB_TYPES = sorted(_ORACLE.job_types.names)
_CLUSTER = ClusterSpec.from_counts({"v100": 4, "p100": 4, "k80": 4}, registry=_REGISTRY)
_SLOW = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
#: Pair rows on in two draws of three: they are the rarer, harder row kinds.
_SPACE_SHARING = st.sampled_from([True, True, False])


def _problem(jobs, space_sharing, cluster=_CLUSTER, **state):
    return PolicyProblem(
        jobs={job.job_id: job for job in jobs},
        throughputs=build_throughput_matrix(jobs, _ORACLE, space_sharing=space_sharing),
        cluster_spec=cluster,
        **state,
    )


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


def _assert_same_allocation(actual: Allocation, expected: Allocation):
    assert actual.combinations == expected.combinations
    assert actual.matrix.shape == expected.matrix.shape
    assert _bits(actual.matrix) == _bits(expected.matrix)
    assert actual.job_ids == expected.job_ids
    assert [actual.scale_factor(job_id) for job_id in actual.job_ids] == [
        expected.scale_factor(job_id) for job_id in expected.job_ids
    ]
    # What expand passes in is what the reference allocation derives.
    assert actual.demand == expected.demand
    assert all(type(scale) is int for scale in actual.demand)


# -- expand ------------------------------------------------------------------------------


@st.composite
def _grouped_jobs(draw):
    """1-40 jobs in 1-8 groups of interchangeable jobs, ids interleaved across groups."""
    sizes = draw(st.lists(st.sampled_from([1, 1, 2, 3, 7]), min_size=1, max_size=8))
    while sum(sizes) > 40:
        sizes.pop()
    job_types = draw(
        st.lists(st.sampled_from(_JOB_TYPES), min_size=len(sizes), max_size=len(sizes))
    )
    scales = draw(
        st.lists(st.sampled_from([1, 1, 1, 1, 2, 4]), min_size=len(sizes), max_size=len(sizes))
    )
    ids = draw(st.permutations(range(sum(sizes))))
    jobs, position = [], 0
    for group, size in enumerate(sizes):
        for _ in range(size):
            jobs.append(
                Job(
                    job_id=ids[position] * 3,
                    job_type=job_types[group],
                    total_steps=100.0 + position,
                    scale_factor=scales[group],
                    # Two groups may draw the same type and scale: keep them apart.
                    priority_weight=1.0 + group,
                )
            )
            position += 1
    return jobs


@st.composite
def _weights(draw, jobs):
    kind = draw(st.sampled_from(["none", "random", "partial", "all_zero"]))
    if kind == "none":
        return None
    if kind == "all_zero":
        return {job.job_id: 0.0 for job in jobs}
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0))
    chosen = jobs if kind == "random" else [job for job in jobs if draw(st.booleans())]
    return {job.job_id: draw(weight) for job in chosen}


class TestExpandMatchesReference:
    @given(data=st.data(), jobs=_grouped_jobs(), space_sharing=_SPACE_SHARING)
    @_SLOW
    def test_any_group_totals_any_weights(self, data, jobs, space_sharing):
        problem = _problem(jobs, space_sharing)
        view = AggregatedProblem.build(problem)
        reference = reference_build(problem)
        combinations = view.problem.throughputs.combinations
        seed = data.draw(st.integers(0, 2**32 - 1))
        totals = np.random.default_rng(seed).uniform(0.0, 3.0, (len(combinations), len(_REGISTRY)))
        aggregated = Allocation.from_matrix(_REGISTRY, combinations, totals)
        weights = data.draw(_weights(jobs))
        _assert_same_allocation(
            view.expand(aggregated, weights), reference_expand(reference, aggregated, weights)
        )

    @given(jobs=_grouped_jobs(), space_sharing=_SPACE_SHARING)
    @_SLOW
    def test_equal_split_of_an_lp_optimum_is_valid(self, jobs, space_sharing):
        problem = _problem(jobs, space_sharing)
        view = AggregatedProblem.build(problem)
        policy = make_policy("max_min_fairness+ss" if space_sharing else "max_min_fairness")
        aggregated = policy.compute_allocation(view.problem)
        expanded = view.expand(aggregated)
        expanded.validate(_CLUSTER)
        _assert_same_allocation(expanded, reference_expand(reference_build(problem), aggregated))

    @pytest.mark.parametrize("size", [2, 3, 7])
    def test_same_group_pair_row_covers_every_member_pair(self, size):
        jobs = [Job(job_id=j, job_type="a3c-bs4", total_steps=10.0) for j in range(size)]
        problem = _problem(jobs, space_sharing=True)
        view = AggregatedProblem.build(problem)
        assert view.problem.throughputs.combinations == ((0,), (0, 0))
        aggregated = Allocation.from_matrix(
            _REGISTRY, ((0,), (0, 0)), np.array([[0.25, 0.5, 1.0], [1.5, 0.75, 0.125]])
        )
        expanded = view.expand(aggregated)
        pairs = [c for c in expanded.combinations if len(c) == 2]
        assert pairs == [(a, b) for a in range(size) for b in range(a + 1, size)]
        _assert_same_allocation(expanded, reference_expand(reference_build(problem), aggregated))

    def test_rejects_weights_the_reference_rejects(self):
        jobs = [Job(job_id=j, job_type="a3c-bs4", total_steps=10.0) for j in range(3)]
        view = AggregatedProblem.build(_problem(jobs, space_sharing=False))
        aggregated = Allocation.zeros(view.problem.throughputs)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite and >= 0"):
                view.expand(aggregated, {1: bad})

    def test_rejects_an_allocation_over_another_problem(self):
        jobs = [Job(job_id=j, job_type="a3c-bs4", total_steps=10.0) for j in (4, 5)]
        view = AggregatedProblem.build(_problem(jobs, space_sharing=False))
        foreign = Allocation.from_matrix(_REGISTRY, ((5,),), np.zeros((1, len(_REGISTRY))))
        with pytest.raises(ConfigurationError, match="group representative"):
            view.expand(foreign)


# -- build -------------------------------------------------------------------------------

_HIERARCHICAL = HierarchicalPolicy(
    [EntitySpec(0, 1.0), EntitySpec(1, 2.0), EntitySpec(2, 1.0, internal_policy="fifo")]
)
_KEYS = {"default": None, "hierarchical": _HIERARCHICAL.aggregation_group_key}


def _assert_same_view(actual, expected):
    """Every field of two views (or a view and a reference view), dict orders included."""
    assert list(actual.groups.items()) == list(expected.groups.items())
    assert list(actual.representatives.items()) == list(expected.representatives.items())
    ours, theirs = actual.problem, expected.problem
    assert list(ours.jobs.items()) == list(theirs.jobs.items())
    for field in ("steps_remaining", "time_elapsed", "group_counts"):
        assert list(getattr(ours, field).items()) == list(getattr(theirs, field).items()), field
        assert [type(v) for v in getattr(ours, field).values()] == [
            type(v) for v in getattr(theirs, field).values()
        ], field
    assert ours.current_time == theirs.current_time
    assert ours.cluster_spec == theirs.cluster_spec
    assert ours.throughputs.combinations == theirs.throughputs.combinations
    for combination in ours.throughputs.combinations:
        assert _bits(ours.throughputs.row(combination)) == _bits(
            theirs.throughputs.row(combination)
        ), combination


class _Population:
    """A mutable job set a Hypothesis-drawn script edits, one event at a time."""

    def __init__(self, data, key_name):
        self.data = data
        self.jobs = {}
        self.next_id = 0
        self.refined = {}
        self.pair_factor = 1.0
        self.cluster = _CLUSTER
        self.entities = [None] if key_name == "default" else [0, 1, 2]

    def draw_job(self, job_id):
        draw = self.data.draw
        return Job(
            job_id=job_id,
            job_type=draw(st.sampled_from(_JOB_TYPES[:5])),
            total_steps=draw(st.sampled_from([100.0, 250.0])),
            scale_factor=draw(st.sampled_from([1, 1, 2])),
            priority_weight=draw(st.sampled_from([1.0, 2.0])),
            entity_id=draw(st.sampled_from(self.entities)),
        )

    def add(self):
        self.jobs[self.next_id] = self.draw_job(self.next_id)
        self.next_id += self.data.draw(st.integers(1, 3))

    def group_of_random_job(self, key):
        key_fn = aggregation.aggregation_key if key is None else key
        chosen = key_fn(self.jobs[self.data.draw(st.sampled_from(sorted(self.jobs)))])
        return sorted(job_id for job_id, job in self.jobs.items() if key_fn(job) == chosen)

    def apply(self, event, key):
        draw = self.data.draw
        if event == "add" or len(self.jobs) <= 1:
            self.add()
        elif event == "remove":
            del self.jobs[draw(st.sampled_from(sorted(self.jobs)))]
        elif event == "remove_representative":
            del self.jobs[self.group_of_random_job(key)[0]]
        elif event == "group_vanishes":
            members = self.group_of_random_job(key)
            if len(members) < len(self.jobs):
                for job_id in members:
                    del self.jobs[job_id]
        elif event == "replace":
            # Under the same id: an equal copy, or a job of another group.
            job_id = draw(st.sampled_from(sorted(self.jobs)))
            old = self.jobs[job_id]
            self.jobs[job_id] = (
                Job(**{name: getattr(old, name) for name in old.__dataclass_fields__})
                if draw(st.booleans())
                else self.draw_job(job_id)
            )
        elif event == "resize":
            self.cluster = ClusterSpec.from_counts(
                {name: draw(st.integers(1, 6)) for name in _REGISTRY.names}, registry=_REGISTRY
            )
        elif event == "refine":
            # A representative's own row moves (an estimate was refined).
            self.refined[self.group_of_random_job(key)[0]] = draw(st.sampled_from([0.5, 0.9]))
        elif event == "refine_pairs":
            # Every colocated estimate moves; no job does.
            self.pair_factor = draw(st.sampled_from([0.8, 0.95, 1.0]))

    def problem(self, space_sharing, now):
        draw = self.data.draw
        jobs = [self.jobs[job_id] for job_id in self.jobs]  # insertion order, not sorted
        matrix = build_throughput_matrix(jobs, _ORACLE, space_sharing=space_sharing)
        job_ids, singles = matrix.singles_matrix()
        for job_id, factor in self.refined.items():
            if job_id in self.jobs:
                singles[job_ids.index(job_id)] *= factor
        pair_ids, pair_block = matrix.pairs_matrix()
        matrix = ThroughputMatrix.from_parts(
            _REGISTRY, job_ids, singles, dict(zip(pair_ids, pair_block * self.pair_factor))
        )
        state = draw(st.sampled_from(["total", "partial", "empty"]))
        steps, elapsed = {}, {}
        for job_id, job in self.jobs.items():
            if state == "total" or (state == "partial" and draw(st.booleans())):
                steps[job_id] = draw(st.floats(min_value=0.0, max_value=job.total_steps))
                elapsed[job_id] = draw(st.floats(min_value=0.0, max_value=1e5))
        return PolicyProblem(
            jobs=dict(self.jobs),
            throughputs=matrix,
            cluster_spec=self.cluster,
            steps_remaining=steps,
            time_elapsed=elapsed,
            current_time=now,
        )


_EVENTS = st.lists(
    st.sampled_from(
        ["add", "add", "remove", "remove_representative", "group_vanishes", "replace", "resize",
         "refine", "refine_pairs", "nothing"]
    ),
    min_size=1,
    max_size=12,
)


class TestIncrementalBuildMatchesFromScratch:
    @pytest.mark.parametrize("key_name", sorted(_KEYS))
    @given(data=st.data(), events=_EVENTS, space_sharing=_SPACE_SHARING)
    @_SLOW
    def test_after_every_event(self, key_name, data, events, space_sharing):
        key = _KEYS[key_name]
        population = _Population(data, key_name)
        for _ in range(data.draw(st.integers(1, 12))):
            population.add()
        view = AggregatedProblem.build(population.problem(space_sharing, 0.0), key=key)
        for step, event in enumerate(events, start=1):
            population.apply(event, key)
            problem = population.problem(space_sharing, 60.0 * step)
            view = AggregatedProblem.build(problem, previous=view, key=key)
            assert view.base is problem
            _assert_same_view(view, AggregatedProblem.build(problem, key=key))
            _assert_same_view(view, reference_build(problem, key=key))
            # The index the next expansion gathers through is current too.
            aggregated = Allocation.from_matrix(
                _REGISTRY,
                view.problem.throughputs.combinations,
                np.full((view.problem.throughputs.num_rows(), len(_REGISTRY)), 0.5),
            )
            _assert_same_allocation(
                view.expand(aggregated),
                reference_expand(reference_build(problem, key=key), aggregated),
            )

    def test_a_view_built_under_another_key_is_not_reused(self):
        jobs = [
            Job(job_id=j, job_type="a3c-bs4", total_steps=10.0, entity_id=j % 2) for j in range(4)
        ]
        problem = _problem(jobs, space_sharing=False)
        by_type = AggregatedProblem.build(problem)
        by_entity = AggregatedProblem.build(
            problem, previous=by_type, key=_HIERARCHICAL.aggregation_group_key
        )
        assert len(by_type.groups) == 1 and len(by_entity.groups) == 2

    def test_an_impure_key_is_reported(self):
        jobs = [Job(job_id=j, job_type="a3c-bs4", total_steps=10.0) for j in range(3)]
        calls = []

        def drifting(job):
            calls.append(job.job_id)
            return ("group", len(calls) > 3)

        view = AggregatedProblem.build(_problem(jobs, False), key=drifting)
        with pytest.raises(ConfigurationError, match="pure function"):
            AggregatedProblem.build(_problem(jobs[:2], False), previous=view, key=drifting)


# -- counts ------------------------------------------------------------------------------


def _round_las_type_run(scale=0.2):
    """The benchmark's ``round_las_type`` shape at ``--scale 0.2``: 30 jobs, type-aggregated LAS."""
    jobs = TraceGenerator(_ORACLE).generate_continuous(
        max(8, round(150 * scale)), jobs_per_hour=30.0, seed=7
    )
    cluster = ClusterSpec.from_counts({name: 36 for name in _REGISTRY.names}, registry=_REGISTRY)
    scheduler = ClusterScheduler(
        "max_min_fairness",
        cluster,
        oracle=_ORACLE,
        config=SchedulerConfig(mode="round", aggregation="type"),
    )
    for job in jobs:
        scheduler.submit(job)
    return scheduler


class TestWorkIsPerGroupTouched:
    def test_replace_and_matrix_aggregation_follow_the_deltas(self):
        scheduler = _round_las_type_run()
        build = AggregatedProblem.build.__func__
        replace, from_parts = aggregation.replace, ThroughputMatrix.from_parts
        log = []

        def counting_build(cls, problem, previous=None, key=None):
            counts = {"replace": 0, "matrices": 0}

            def counting_replace(*args, **kwargs):
                counts["replace"] += 1
                return replace(*args, **kwargs)

            def counting_from_parts(*args, **kwargs):
                counts["matrices"] += 1
                return from_parts(*args, **kwargs)

            with mock.patch.object(aggregation, "replace", counting_replace), mock.patch.object(
                ThroughputMatrix, "from_parts", counting_from_parts
            ):
                view = build(cls, problem, previous, key)
            log.append((previous, view, counts))
            return view

        with mock.patch.object(AggregatedProblem, "build", classmethod(counting_build)):
            while scheduler.step():
                pass
        assert len(log) > 20
        reused = 0
        for previous, view, counts in log:
            if previous is None:
                assert counts == {"replace": len(view.groups), "matrices": 1}
                continue
            before, after = previous.base.jobs, view.base.jobs
            moved = [before[j] for j in before.keys() - after.keys()] + [
                after[j] for j in after.keys() - before.keys()
            ]
            touched = {aggregation.aggregation_key(job) for job in moved}
            # One ``replace`` per touched group that still exists, none for the others.
            assert counts["replace"] == len(touched & view.groups.keys())
            same_representatives = list(previous.representatives.values()) == list(
                view.representatives.values()
            )
            assert counts["matrices"] == (0 if same_representatives else 1)
            if same_representatives:
                assert view.problem.throughputs is previous.problem.throughputs
                reused += 1
        # Some events leave the representatives alone (a member of a larger group comes or goes).
        assert reused > 0

    def test_expand_does_python_work_per_group_not_per_job(self):
        # 400 jobs of 4 types and then 4 000: the calls ``expand`` makes —
        # Python functions and C builtins alike — do not grow with the jobs.
        def calls_of_expand(per_type):
            jobs = [
                Job(job_id=j, job_type=_JOB_TYPES[j % 4], total_steps=10.0)
                for j in range(4 * per_type)
            ]
            problem = _problem(jobs, space_sharing=False)
            view = AggregatedProblem.build(problem)
            aggregated = make_policy("max_min_fairness").compute_allocation(view.problem)
            calls = [0]

            def profiler(frame, event, arg):
                calls[0] += event in ("call", "c_call")

            sys.setprofile(profiler)
            try:
                expanded = view.expand(aggregated)
            finally:
                sys.setprofile(None)
            assert len(expanded.combinations) == 4 * per_type
            return calls[0]

        small, large = calls_of_expand(100), calls_of_expand(1000)
        assert small == large
        assert large <= 25 * 4

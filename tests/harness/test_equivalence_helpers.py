"""Unit tests for the equivalence-harness building blocks.

The registry-wide churn suites exercise these helpers end to end; here each
one is pinned down in isolation: the churn generator's determinism and
invariants, the objective evaluator's optimality ordering, the water-filling
level profile's shape, and the aggregation-equivalence assertion's pass and
fail behavior.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import AllocationEngine, PolicyProblem, make_policy
from repro.core.aggregation import aggregation_key
from repro.core.session import RebuildSession
from repro.workloads import ThroughputOracle

from tests.equivalence import (
    assert_aggregation_equivalent,
    churn_events,
    policy_objective_value,
    water_filling_level_profile,
)


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def cluster(oracle):
    return ClusterSpec.from_counts(
        {name: 2 for name in oracle.registry.names}, registry=oracle.registry
    )


def build_problem(oracle, cluster, policy, jobs):
    engine = AllocationEngine(oracle, space_sharing=policy.space_sharing)
    for job in jobs.values():
        engine.add_job(job)
    return PolicyProblem(
        jobs=dict(jobs),
        throughputs=engine.matrix(),
        cluster_spec=cluster,
        steps_remaining={job_id: job.total_steps for job_id, job in jobs.items()},
        time_elapsed={job_id: 0.0 for job_id in jobs},
        current_time=0.0,
    )


def initial_jobs(oracle, count=4, unique_groups=False):
    jobs = {}
    for action, job in churn_events(oracle, num_initial=12, num_events=0):
        assert action == "add"
        if unique_groups and any(
            aggregation_key(job) == aggregation_key(other) for other in jobs.values()
        ):
            continue
        jobs[job.job_id] = job
        if len(jobs) == count:
            break
    assert len(jobs) == count
    return jobs


class TestChurnEvents:
    def test_deterministic_for_a_seed(self, oracle):
        first = churn_events(oracle, num_initial=6, num_events=8, seed=3)
        second = churn_events(oracle, num_initial=6, num_events=8, seed=3)
        assert [(action, job.job_id) for action, job in first] == [
            (action, job.job_id) for action, job in second
        ]

    def test_removals_target_previously_added_jobs(self, oracle):
        active = set()
        for action, job in churn_events(oracle, num_initial=6, num_events=10, seed=5):
            if action == "add":
                assert job.job_id not in active
                active.add(job.job_id)
            else:
                assert job.job_id in active
                active.remove(job.job_id)

    def test_entities_round_robin(self, oracle):
        events = churn_events(oracle, num_initial=6, num_events=0, num_entities=3)
        assert {job.entity_id for _action, job in events} == {0, 1, 2}


class TestPolicyObjectiveValue:
    def test_optimum_dominates_foreign_allocation(self, oracle, cluster):
        spec = "max_min_fairness"
        policy = make_policy(spec)
        problem = build_problem(oracle, cluster, policy, initial_jobs(oracle))
        optimal = RebuildSession(policy, problem).solve(problem)
        foreign_policy = make_policy("fifo")
        foreign = RebuildSession(foreign_policy, problem).solve(problem)
        best = policy_objective_value(spec, policy, problem, optimal)
        other = policy_objective_value(spec, policy, problem, foreign)
        assert best is not None and other is not None
        assert best >= other - 1e-6

    def test_combinatorial_baseline_has_no_objective(self, oracle, cluster):
        policy = make_policy("gandiva")
        problem = build_problem(oracle, cluster, policy, initial_jobs(oracle))
        allocation = RebuildSession(policy, problem).solve(problem)
        assert policy_objective_value("gandiva", policy, problem, allocation) is None


class TestWaterFillingLevelProfile:
    def test_profile_is_sorted_and_per_job(self, oracle, cluster):
        policy = make_policy("max_min_fairness_water_filling")
        problem = build_problem(oracle, cluster, policy, initial_jobs(oracle))
        allocation = RebuildSession(policy, problem).solve(problem)
        profile = water_filling_level_profile(policy, problem, allocation)
        assert profile.shape == (len(problem.jobs),)
        assert np.all(np.diff(profile) >= 0.0)
        assert np.all(profile >= -1e-9)


class TestAssertAggregationEquivalent:
    def test_identical_allocations_pass(self, oracle, cluster):
        spec = "max_min_fairness"
        policy = make_policy(spec)
        jobs = initial_jobs(oracle, unique_groups=True)
        problem = build_problem(oracle, cluster, policy, jobs)
        allocation = RebuildSession(policy, problem).solve(problem)
        assert_aggregation_equivalent(spec, policy, problem, allocation, allocation)

    def test_objective_mismatch_raises(self, oracle, cluster):
        spec = "max_min_fairness"
        policy = make_policy(spec)
        problem = build_problem(oracle, cluster, policy, initial_jobs(oracle))
        optimal = RebuildSession(policy, problem).solve(problem)
        foreign = RebuildSession(make_policy("fifo"), problem).solve(problem)
        if policy_objective_value(spec, policy, problem, foreign) == pytest.approx(
            policy_objective_value(spec, policy, problem, optimal)
        ):
            pytest.skip("fifo accidentally optimal on this trace")
        with pytest.raises(AssertionError):
            assert_aggregation_equivalent(spec, policy, problem, foreign, optimal)

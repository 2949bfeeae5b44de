"""Tests for hierarchical (multi-level) policies."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterSpec, default_registry
from repro.core import (
    EntitySpec,
    HierarchicalPolicy,
    PolicyProblem,
    ThroughputMatrix,
    WaterFillingFairnessPolicy,
    effective_throughput,
)
from repro.exceptions import ConfigurationError
from repro.workloads import Job


def _entity_problem(jobs_per_entity=(2, 2, 2), num_gpus=6):
    """Identical jobs split across entities on identical GPUs."""
    registry = default_registry().subset(["v100"])
    num_jobs = sum(jobs_per_entity)
    matrix = ThroughputMatrix(registry, {(i,): np.array([[1.0]]) for i in range(num_jobs)})
    spec = ClusterSpec.from_counts({"v100": num_gpus}, registry=registry)
    jobs = {}
    job_id = 0
    for entity_id, count in enumerate(jobs_per_entity):
        for position in range(count):
            jobs[job_id] = Job(
                job_id=job_id,
                job_type="x",
                total_steps=1000.0,
                arrival_time=float(job_id),
                entity_id=entity_id,
            )
            job_id += 1
    problem = PolicyProblem(jobs=jobs, throughputs=matrix, cluster_spec=spec)
    return problem, matrix


class TestEntitySpec:
    def test_valid(self):
        assert EntitySpec(entity_id=0, weight=2.0).internal_policy == "fairness"

    def test_invalid_weight(self):
        with pytest.raises(ConfigurationError):
            EntitySpec(entity_id=0, weight=0.0)

    def test_invalid_policy(self):
        with pytest.raises(ConfigurationError):
            EntitySpec(entity_id=0, weight=1.0, internal_policy="lifo")


class TestHierarchicalPolicy:
    def test_entity_weights_respected_under_contention(self):
        """With 3 GPUs and entities weighted 1:2, entity 1 gets twice the share."""
        problem, matrix = _entity_problem(jobs_per_entity=(2, 2), num_gpus=2)
        policy = HierarchicalPolicy(
            [EntitySpec(0, weight=1.0), EntitySpec(1, weight=2.0)]
        )
        allocation = policy.compute_allocation(problem)
        entity0 = sum(effective_throughput(matrix, allocation, j) for j in (0, 1))
        entity1 = sum(effective_throughput(matrix, allocation, j) for j in (2, 3))
        assert entity1 / entity0 == pytest.approx(2.0, rel=0.2)

    def test_fairness_within_entity(self):
        problem, matrix = _entity_problem(jobs_per_entity=(3,), num_gpus=1)
        policy = HierarchicalPolicy([EntitySpec(0, weight=1.0, internal_policy="fairness")])
        allocation = policy.compute_allocation(problem)
        throughputs = [effective_throughput(matrix, allocation, j) for j in range(3)]
        assert max(throughputs) - min(throughputs) <= 0.1

    def test_fifo_within_entity_prefers_earliest(self):
        problem, matrix = _entity_problem(jobs_per_entity=(3,), num_gpus=1)
        policy = HierarchicalPolicy([EntitySpec(0, weight=1.0, internal_policy="fifo")])
        allocation = policy.compute_allocation(problem)
        throughputs = [effective_throughput(matrix, allocation, j) for j in range(3)]
        assert throughputs[0] >= throughputs[1] - 1e-6
        assert throughputs[0] >= throughputs[2] - 1e-6
        assert throughputs[0] == pytest.approx(1.0, abs=0.1)

    def test_unused_capacity_given_to_other_entities(self):
        """When one entity cannot use its full share, others absorb it (water filling)."""
        problem, matrix = _entity_problem(jobs_per_entity=(1, 5), num_gpus=6)
        policy = HierarchicalPolicy(
            [EntitySpec(0, weight=5.0), EntitySpec(1, weight=1.0)]
        )
        allocation = policy.compute_allocation(problem)
        # Entity 0 has one job: it can use at most one GPU even with weight 5;
        # entity 1's five jobs should soak up the remaining five GPUs.
        entity1 = sum(effective_throughput(matrix, allocation, j) for j in range(1, 6))
        assert entity1 == pytest.approx(5.0, abs=0.3)

    def test_jobs_without_entity_rejected(self, mixed_problem):
        policy = HierarchicalPolicy([EntitySpec(0, weight=1.0)])
        with pytest.raises(ConfigurationError):
            policy.compute_allocation(mixed_problem)

    def test_unknown_entity_rejected(self):
        problem, _ = _entity_problem(jobs_per_entity=(2,), num_gpus=2)
        policy = HierarchicalPolicy([EntitySpec(5, weight=1.0)])
        with pytest.raises(ConfigurationError):
            policy.compute_allocation(problem)

    def test_duplicate_entities_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchicalPolicy([EntitySpec(0, weight=1.0), EntitySpec(0, weight=2.0)])

    def test_no_entities_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchicalPolicy([])

    def test_allocation_valid_on_heterogeneous_cluster(self, oracle):
        from repro.core import build_throughput_matrix

        spec = ClusterSpec.from_counts({"v100": 3, "p100": 3, "k80": 3})
        jobs = [
            Job(job_id=i, job_type=t, total_steps=1e5, arrival_time=float(i), entity_id=i // 2)
            for i, t in enumerate(
                ["resnet50-bs64", "a3c-bs4", "lstm-bs20", "transformer-bs64", "resnet18-bs32", "recoder-bs1024"]
            )
        ]
        matrix = build_throughput_matrix(jobs, oracle)
        problem = PolicyProblem(
            jobs={j.job_id: j for j in jobs}, throughputs=matrix, cluster_spec=spec
        )
        policy = HierarchicalPolicy(
            [EntitySpec(0, weight=1.0), EntitySpec(1, weight=2.0), EntitySpec(2, weight=3.0, internal_policy="fifo")]
        )
        result = policy.compute_with_diagnostics(problem)
        result.allocation.validate(spec)
        assert set(result.normalized_throughputs) == set(problem.job_ids)


#: Random hierarchies for the _distribute_weights property tests: per-entity
#: ``(weight, internal policy, jobs in entity)`` plus a bottleneck mask.
_hierarchy_strategy = st.lists(
    st.tuples(
        st.floats(0.25, 8.0, allow_nan=False),
        st.sampled_from(["fairness", "fifo"]),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=4,
)
_bottleneck_seed = st.integers(0, 2**31 - 1)


def _hierarchy_case(layout, seed):
    """Build (entities, problem, bottlenecked) from a drawn hierarchy layout."""
    registry = default_registry().subset(["v100"])
    entities = []
    jobs = {}
    job_id = 0
    for entity_id, (weight, internal, num_jobs) in enumerate(layout):
        entities.append(EntitySpec(entity_id, weight=weight, internal_policy=internal))
        for _ in range(num_jobs):
            jobs[job_id] = Job(
                job_id=job_id,
                job_type="x",
                total_steps=1000.0,
                arrival_time=float(job_id),
                entity_id=entity_id,
            )
            job_id += 1
    matrix = ThroughputMatrix(registry, {(i,): np.array([[1.0]]) for i in jobs})
    spec = ClusterSpec.from_counts({"v100": max(1, len(jobs) // 2)}, registry=registry)
    problem = PolicyProblem(jobs=jobs, throughputs=matrix, cluster_spec=spec)
    rng = np.random.default_rng(seed)
    bottlenecked = {i for i in jobs if rng.random() < 0.4}
    return entities, problem, bottlenecked


class TestDistributeWeightsProperties:
    """Invariants of HierarchicalPolicy._distribute_weights (Section 4.3)."""

    @given(layout=_hierarchy_strategy, seed=_bottleneck_seed)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_conserves_total_weight_of_live_entities(self, layout, seed):
        """Distributed weight equals the summed weight of entities still in play."""
        entities, problem, bottlenecked = _hierarchy_case(layout, seed)
        policy = HierarchicalPolicy(entities)
        weights = policy._distribute_weights(problem, bottlenecked)
        live = {
            e.entity_id: e.weight
            for e in entities
            if any(
                problem.job(j).entity_id == e.entity_id and j not in bottlenecked
                for j in problem.job_ids
            )
        }
        assert sum(weights.values()) == pytest.approx(sum(live.values()))

    @given(layout=_hierarchy_strategy, seed=_bottleneck_seed)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_never_revives_bottlenecked_jobs_or_frozen_entities(self, layout, seed):
        """Bottlenecked jobs get zero weight; fully-bottlenecked entities stay dark."""
        entities, problem, bottlenecked = _hierarchy_case(layout, seed)
        policy = HierarchicalPolicy(entities)
        weights = policy._distribute_weights(problem, bottlenecked)
        for job_id in bottlenecked:
            assert weights[job_id] == 0.0
        for entity in entities:
            members = [j for j in problem.job_ids if problem.job(j).entity_id == entity.entity_id]
            if members and all(j in bottlenecked for j in members):
                assert sum(weights[j] for j in members) == 0.0

    @given(layout=_hierarchy_strategy, seed=_bottleneck_seed)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_permutation_invariant_over_entity_ids(self, layout, seed):
        """Relabelling entity ids permutes nothing observable: per-job weights match."""
        entities, problem, bottlenecked = _hierarchy_case(layout, seed)
        baseline = HierarchicalPolicy(entities)._distribute_weights(problem, bottlenecked)

        # Reverse the entity-id labels (a nontrivial permutation) and relabel
        # every job consistently; job ids — the observable axis — stay put.
        old_ids = [e.entity_id for e in entities]
        relabel = {old: new for old, new in zip(old_ids, reversed(old_ids))}
        permuted_entities = [
            EntitySpec(relabel[e.entity_id], e.weight, e.internal_policy) for e in entities
        ]
        permuted_jobs = {
            job_id: Job(
                job_id=job_id,
                job_type=job.job_type,
                total_steps=job.total_steps,
                arrival_time=job.arrival_time,
                entity_id=relabel[job.entity_id],
            )
            for job_id, job in problem.jobs.items()
        }
        permuted_problem = PolicyProblem(
            jobs=permuted_jobs,
            throughputs=problem.throughputs,
            cluster_spec=problem.cluster_spec,
        )
        permuted = HierarchicalPolicy(permuted_entities)._distribute_weights(
            permuted_problem, bottlenecked
        )
        assert set(baseline) == set(permuted)
        for job_id, weight in baseline.items():
            assert permuted[job_id] == pytest.approx(weight)


    @given(layout=_hierarchy_strategy, seed=_bottleneck_seed)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_redistribution_closure_groups_jobs_once(self, layout, seed):
        """The level loop's closure answers like a fresh split, from one grouping."""
        entities, problem, bottlenecked = _hierarchy_case(layout, seed)
        policy = HierarchicalPolicy(entities)
        groupings = []
        jobs_by_entity = policy._jobs_by_entity
        policy._jobs_by_entity = lambda problem: groupings.append(1) or jobs_by_entity(problem)
        redistribute = policy.water_filling_redistribution(problem)
        for frozen in (set(), bottlenecked, set(problem.job_ids)):
            assert redistribute({}, frozen) == HierarchicalPolicy(entities)._distribute_weights(
                problem, frozen
            )
        assert groupings == [1]


class TestEntityFallback:
    def test_round_robin_assigns_entityless_jobs(self):
        problem, matrix = _entity_problem(jobs_per_entity=(2, 2), num_gpus=2)
        stripped = PolicyProblem(
            jobs={
                job_id: Job(
                    job_id=job_id, job_type=job.job_type, total_steps=job.total_steps,
                    arrival_time=job.arrival_time,
                )
                for job_id, job in problem.jobs.items()
            },
            throughputs=matrix,
            cluster_spec=problem.cluster_spec,
        )
        strict = HierarchicalPolicy([EntitySpec(0, 1.0), EntitySpec(1, 2.0)])
        with pytest.raises(ConfigurationError):
            strict.compute_allocation(stripped)
        relaxed = HierarchicalPolicy(
            [EntitySpec(0, 1.0), EntitySpec(1, 2.0)], entity_fallback="round_robin"
        )
        allocation = relaxed.compute_allocation(stripped)
        allocation.validate(stripped.cluster_spec)

    def test_registry_hierarchical_defaults_to_round_robin(self):
        from repro.core import make_policy

        policy = make_policy("hierarchical")
        assert len(policy.entities) == 3
        assert policy._entity_fallback == "round_robin"

    def test_unknown_fallback_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchicalPolicy([EntitySpec(0, 1.0)], entity_fallback="guess")


class TestWaterFillingFairnessPolicy:
    def test_single_level_water_filling_valid(self, mixed_problem):
        allocation = WaterFillingFairnessPolicy().compute_allocation(mixed_problem)
        allocation.validate(mixed_problem.cluster_spec)

    def test_not_worse_than_plain_lp_for_the_minimum(self, mixed_problem):
        from repro.core import MaxMinFairnessPolicy
        from repro.core.effective_throughput import equal_share_reference_throughput

        matrix = mixed_problem.throughputs

        def min_normalized(allocation):
            values = []
            for job_id in mixed_problem.job_ids:
                reference = equal_share_reference_throughput(
                    matrix, mixed_problem.cluster_spec, job_id
                )
                values.append(effective_throughput(matrix, allocation, job_id) / reference)
            return min(values)

        plain = MaxMinFairnessPolicy().compute_allocation(mixed_problem)
        filled = WaterFillingFairnessPolicy().compute_allocation(mixed_problem)
        assert min_normalized(filled) >= min_normalized(plain) - 0.02

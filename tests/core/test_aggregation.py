"""Type-aggregated allocation: grouping, recovery, and churn equivalence.

The tentpole guarantee is that ``aggregation="type"`` is *exact* for the
supported policy bases: the aggregated LP (one representative per
``(job_type, scale_factor, priority_weight)`` group) reaches the same
optimum as the per-job baseline, and the proportional-split expansion hands
back a valid per-job allocation with equal shares inside every group.  The
registry-wide churn sweep below is the enforcement of that contract; the
unit tests pin the view/expansion mechanics it relies on.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import (
    AGGREGATION_SUPPORTED_BASES,
    AggregatedProblem,
    AggregatedSession,
    AllocationEngine,
    PolicyProblem,
    aggregation_key,
    make_policy,
    parse_policy_spec,
    supports_type_aggregation,
)
from repro.core.throughput_matrix import build_throughput_matrix
from repro.exceptions import ConfigurationError
from repro.workloads import Job, ThroughputOracle, TraceGenerator

from tests.equivalence import run_churn_equivalence

#: Variant suffixes crossed with every supported base (mirrors test_session).
_VARIANT_SUFFIXES = ("", "+ss", "@agnostic", "+ss@agnostic")


def _supported_variant_specs():
    specs = []
    for base in sorted(AGGREGATION_SUPPORTED_BASES):
        for suffix in _VARIANT_SUFFIXES:
            spec = base + suffix
            try:
                make_policy(spec, aggregation="type")
            except ConfigurationError:
                continue
            specs.append(spec)
    return specs


_SUPPORTED_SPECS = _supported_variant_specs()


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def cluster(oracle):
    return ClusterSpec.from_counts(
        {name: 4 for name in oracle.registry.names}, registry=oracle.registry
    )


def _duplicated_jobs(num_types=3, per_type=4):
    """``num_types * per_type`` jobs drawn from ``num_types`` distinct types."""
    types = ["resnet50-bs16", "a3c-bs4", "lstm-bs10"][:num_types]
    jobs = []
    for index in range(num_types * per_type):
        jobs.append(
            Job(
                job_id=index,
                job_type=types[index % num_types],
                total_steps=1000.0 + index,
            )
        )
    return jobs


class TestAggregationKey:
    def test_key_fields(self):
        job = Job(job_id=3, job_type="a3c-bs4", total_steps=10.0, scale_factor=2,
                  priority_weight=1.5)
        assert aggregation_key(job) == ("a3c-bs4", 2, 1.5)

    def test_supported_bases(self):
        assert supports_type_aggregation("max_min_fairness")
        assert supports_type_aggregation("max_total_throughput")
        assert supports_type_aggregation("min_cost")
        assert supports_type_aggregation("hierarchical")
        assert supports_type_aggregation("max_min_fairness_water_filling")
        assert not supports_type_aggregation("min_cost_slo")
        assert not supports_type_aggregation("finish_time_fairness")


class TestAggregatedProblemBuild:
    def _problem(self, oracle, cluster, jobs, space_sharing=False):
        matrix = build_throughput_matrix(jobs, oracle, space_sharing=space_sharing)
        return PolicyProblem(
            jobs={job.job_id: job for job in jobs},
            throughputs=matrix,
            cluster_spec=cluster,
        )

    def test_groups_and_representatives(self, oracle, cluster):
        jobs = _duplicated_jobs(num_types=3, per_type=4)
        view = AggregatedProblem.build(self._problem(oracle, cluster, jobs))
        assert len(view.groups) == 3
        for key, members in view.groups.items():
            assert len(members) == 4
            assert view.representatives[key] == min(members)
        # The inner problem has one job per group with the count recorded.
        assert view.problem.num_jobs == 3
        assert sorted(view.problem.group_counts.values()) == [4, 4, 4]

    def test_priority_weight_baked_with_count(self, oracle, cluster):
        jobs = _duplicated_jobs(num_types=2, per_type=3)
        view = AggregatedProblem.build(self._problem(oracle, cluster, jobs))
        for key, members in view.groups.items():
            rep = view.representatives[key]
            assert view.problem.priority_weight(rep) == pytest.approx(
                len(members) * 1.0
            )

    def test_matrix_rows_scale_with_types_not_jobs(self, oracle, cluster):
        jobs = _duplicated_jobs(num_types=3, per_type=8)  # 24 jobs, 3 types
        problem = self._problem(oracle, cluster, jobs, space_sharing=True)
        view = AggregatedProblem.build(problem)
        num_types = 3
        max_rows = num_types + num_types * (num_types + 1) // 2  # singles + pairs
        assert view.problem.throughputs.num_rows() <= max_rows
        assert problem.throughputs.num_rows() > view.problem.throughputs.num_rows()

    def test_same_group_pair_becomes_rep_rep_row(self, oracle, cluster):
        # Two colocatable jobs of one light type: the aggregated matrix keeps
        # a single duplicate-membership row for within-group sharing.
        jobs = [
            Job(job_id=0, job_type="a3c-bs4", total_steps=10.0),
            Job(job_id=1, job_type="a3c-bs4", total_steps=20.0),
        ]
        problem = self._problem(oracle, cluster, jobs, space_sharing=True)
        view = AggregatedProblem.build(problem)
        assert (0, 0) in view.problem.throughputs.combinations

    def test_rejects_already_aggregated_problem(self, oracle, cluster):
        jobs = _duplicated_jobs(num_types=2, per_type=2)
        view = AggregatedProblem.build(self._problem(oracle, cluster, jobs))
        with pytest.raises(ConfigurationError):
            AggregatedProblem.build(view.problem)

    def test_matrix_reuse_across_identical_views(self, oracle, cluster):
        jobs = _duplicated_jobs(num_types=2, per_type=3)
        problem = self._problem(oracle, cluster, jobs)
        first = AggregatedProblem.build(problem)
        second = AggregatedProblem.build(problem, previous=first)
        assert second.problem.throughputs is first.problem.throughputs


class TestExpansion:
    def test_expand_conserves_totals_and_usage(self, oracle, cluster):
        jobs = _duplicated_jobs(num_types=2, per_type=3)
        matrix = build_throughput_matrix(jobs, oracle, space_sharing=True)
        problem = PolicyProblem(
            jobs={job.job_id: job for job in jobs},
            throughputs=matrix,
            cluster_spec=cluster,
        )
        view = AggregatedProblem.build(problem)
        policy = make_policy("max_min_fairness+ss")
        aggregated = policy.compute_allocation(view.problem)
        expanded = view.expand(aggregated)
        expanded.validate(cluster)
        # Every group's member totals are equal and sum to the rep's total.
        for key, members in view.groups.items():
            rep = view.representatives[key]
            totals = [expanded.job_total(member) for member in members]
            np.testing.assert_allclose(totals, np.full(len(totals), totals[0]), atol=1e-9)
            assert sum(totals) == pytest.approx(aggregated.job_total(rep), abs=1e-6)

    def test_expand_degenerates_to_identity_for_singleton_groups(self, oracle, cluster):
        # All-distinct types: aggregation is the identity transformation.
        jobs = [
            Job(job_id=0, job_type="resnet50-bs16", total_steps=10.0),
            Job(job_id=1, job_type="a3c-bs4", total_steps=10.0),
            Job(job_id=2, job_type="lstm-bs10", total_steps=10.0),
        ]
        matrix = build_throughput_matrix(jobs, oracle)
        problem = PolicyProblem(
            jobs={job.job_id: job for job in jobs},
            throughputs=matrix,
            cluster_spec=cluster,
        )
        view = AggregatedProblem.build(problem)
        policy = make_policy("max_min_fairness")
        aggregated = policy.compute_allocation(view.problem)
        expanded = view.expand(aggregated)
        for combination in aggregated.combinations:
            np.testing.assert_allclose(
                expanded.row(combination), aggregated.row(combination), atol=1e-12
            )


class TestTypeModeEngine:
    def test_pair_rows_bounded_by_type_pairs(self, oracle):
        engine = AllocationEngine(oracle, space_sharing=True, aggregation="type")
        jobs = _duplicated_jobs(num_types=3, per_type=10)
        engine.add_jobs(jobs)
        pair_rows = [c for c in engine.matrix().combinations if len(c) == 2]
        assert len(pair_rows) <= 3 * 4 // 2  # at most C(3,2) + 3 same-type pairs
        assert engine.group_counts and sum(engine.group_counts.values()) == 30

    def test_removal_reseats_orphaned_representatives(self, oracle):
        engine = AllocationEngine(oracle, space_sharing=True, aggregation="type")
        jobs = _duplicated_jobs(num_types=2, per_type=3)
        engine.add_jobs(jobs)
        # Remove the smallest member of each type (the likely pair reps).
        engine.remove_job(0)
        engine.remove_job(1)
        matrix = engine.matrix()
        live = {job.job_id for job in jobs} - {0, 1}
        for combination in matrix.combinations:
            assert set(combination) <= live
        assert sum(engine.group_counts.values()) == 4


class TestChurnEquivalence:
    @pytest.mark.parametrize("spec", _SUPPORTED_SPECS)
    def test_registry_wide_aggregated_equivalence(self, spec, oracle, cluster):
        stats = run_churn_equivalence(spec, oracle, cluster, aggregation="type")
        assert stats["steps"] >= 5
        # LP size evidence: inner rows bounded by a function of active types,
        # never by the job count (types + all type pairs incl. same-type).
        types = stats["max_active_types"]
        assert stats["max_inner_rows"] <= types + types * (types + 1) // 2

    def test_supported_specs_cover_every_base(self):
        bases = {parse_policy_spec(spec)[0] for spec in _SUPPORTED_SPECS}
        assert bases == set(AGGREGATION_SUPPORTED_BASES)

    def test_unsupported_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="aggregation"):
            make_policy("min_cost_slo", aggregation="type")
        with pytest.raises(ConfigurationError, match="aggregation"):
            make_policy("finish_time_fairness", aggregation="type")

    def test_unknown_aggregation_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("max_min_fairness", aggregation="banana")

    def test_session_dispatch(self, oracle, cluster):
        jobs = _duplicated_jobs(num_types=2, per_type=2)
        matrix = build_throughput_matrix(jobs, oracle)
        problem = PolicyProblem(
            jobs={job.job_id: job for job in jobs},
            throughputs=matrix,
            cluster_spec=cluster,
        )
        aggregated_policy = make_policy("max_min_fairness", aggregation="type")
        session = aggregated_policy.session(problem)
        assert isinstance(session, AggregatedSession)
        # The per-job default is unchanged.
        assert not isinstance(make_policy("max_min_fairness").session(problem),
                              AggregatedSession)
        # compute_allocation routes through the dispatcher too.
        allocation = aggregated_policy.compute_allocation(problem)
        allocation.validate(cluster)

"""Tests for the heterogeneity-aware LAS (max-min fairness) policy."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, default_registry
from repro.core import (
    MaxMinFairnessPolicy,
    PolicyProblem,
    ThroughputMatrix,
    effective_throughput,
    equal_share_reference_throughput,
    make_policy,
)
from repro.core.policy import AllocationVariables
from repro.solver.lp import LinearProgram
from repro.workloads import Job

from churn_fingerprint_scenarios import churn_problems


class TestWorkedExample:
    """The Section 4.1 worked example: T = [[4,1],[3,1],[2,1]], 1 V100 + 1 K80."""

    def test_matches_paper_allocation(self, worked_example_problem):
        allocation = MaxMinFairnessPolicy().compute_allocation(worked_example_problem)
        # Paper: X^het = [[0.45, 0.0], [0.45, 0.09], [0.09, 0.91]].
        assert allocation.value((0,), "v100") == pytest.approx(0.45, abs=0.02)
        assert allocation.value((0,), "k80") == pytest.approx(0.0, abs=0.02)
        assert allocation.value((1,), "v100") == pytest.approx(0.45, abs=0.02)
        assert allocation.value((1,), "k80") == pytest.approx(0.09, abs=0.02)
        assert allocation.value((2,), "v100") == pytest.approx(0.09, abs=0.02)
        assert allocation.value((2,), "k80") == pytest.approx(0.91, abs=0.02)

    def test_beats_isolated_allocation_by_ten_percent(self, worked_example_problem):
        """Paper: jobs receive ~10% higher throughput than the 1/n split."""
        problem = worked_example_problem
        matrix = problem.throughputs
        allocation = MaxMinFairnessPolicy().compute_allocation(problem)
        for job_id in problem.job_ids:
            achieved = effective_throughput(matrix, allocation, job_id)
            isolated = float(matrix.isolated_throughputs(job_id).sum()) / 3.0
            assert achieved >= isolated * 1.05

    def test_allocation_is_valid(self, worked_example_problem):
        allocation = MaxMinFairnessPolicy().compute_allocation(worked_example_problem)
        allocation.validate(worked_example_problem.cluster_spec)


class TestWeightsAndScaleFactors:
    def test_higher_weight_gets_higher_normalized_throughput(self, oracle, small_cluster):
        jobs = {
            0: Job(job_id=0, job_type="resnet50-bs64", total_steps=1e5, priority_weight=4.0),
            1: Job(job_id=1, job_type="resnet50-bs64", total_steps=1e5, priority_weight=1.0),
        }
        from repro.core import build_throughput_matrix

        matrix = build_throughput_matrix(list(jobs.values()), oracle)
        problem = PolicyProblem(jobs=jobs, throughputs=matrix, cluster_spec=small_cluster)
        allocation = MaxMinFairnessPolicy().compute_allocation(problem)
        heavy = effective_throughput(matrix, allocation, 0)
        light = effective_throughput(matrix, allocation, 1)
        assert heavy > 1.5 * light

    def test_equal_weights_equal_normalized_throughput(self, mixed_problem):
        policy = MaxMinFairnessPolicy()
        allocation = policy.compute_allocation(mixed_problem)
        matrix = mixed_problem.throughputs
        normalized = []
        for job_id in mixed_problem.job_ids:
            reference = equal_share_reference_throughput(
                matrix, mixed_problem.cluster_spec, job_id
            )
            normalized.append(effective_throughput(matrix, allocation, job_id) / reference)
        assert max(normalized) - min(normalized) <= max(normalized) * 0.35

    def test_multi_worker_job_respects_capacity(self, oracle):
        spec = ClusterSpec.from_counts({"v100": 4, "p100": 4, "k80": 4})
        from repro.core import build_throughput_matrix

        jobs = [
            Job(job_id=0, job_type="resnet50-bs64", total_steps=1e5, scale_factor=4),
            Job(job_id=1, job_type="lstm-bs20", total_steps=1e5, scale_factor=1),
        ]
        matrix = build_throughput_matrix(jobs, oracle)
        problem = PolicyProblem(
            jobs={job.job_id: job for job in jobs}, throughputs=matrix, cluster_spec=spec
        )
        allocation = MaxMinFairnessPolicy().compute_allocation(problem)
        allocation.validate(spec)
        usage = allocation.worker_usage()
        assert np.all(usage <= spec.counts_vector() + 1e-6)


class TestVariants:
    def test_heterogeneity_agnostic_ignores_speed_differences(self, mixed_problem):
        """The agnostic variant cannot give fast-GPU affinity to high-speedup jobs."""
        aware = MaxMinFairnessPolicy().compute_allocation(mixed_problem)
        agnostic = MaxMinFairnessPolicy(heterogeneity_agnostic=True).compute_allocation(
            mixed_problem
        )
        matrix = mixed_problem.throughputs
        total_aware = sum(
            effective_throughput(matrix, aware, job_id) / matrix.isolated_throughputs(job_id).max()
            for job_id in mixed_problem.job_ids
        )
        total_agnostic = sum(
            effective_throughput(matrix, agnostic, job_id)
            / matrix.isolated_throughputs(job_id).max()
            for job_id in mixed_problem.job_ids
        )
        assert total_aware >= total_agnostic - 1e-6

    def test_space_sharing_at_least_as_good(self, mixed_problem_ss):
        """Solutions with colocation are at least as good as without (Section 4.4)."""
        matrix = mixed_problem_ss.throughputs
        no_ss = MaxMinFairnessPolicy(space_sharing=False).compute_allocation(mixed_problem_ss)
        with_ss = MaxMinFairnessPolicy(space_sharing=True).compute_allocation(mixed_problem_ss)

        def min_normalized(allocation):
            values = []
            for job_id in mixed_problem_ss.job_ids:
                reference = equal_share_reference_throughput(
                    matrix, mixed_problem_ss.cluster_spec, job_id
                )
                values.append(effective_throughput(matrix, allocation, job_id) / reference)
            return min(values)

        assert min_normalized(with_ss) >= min_normalized(no_ss) - 1e-3

    def test_display_name_annotations(self):
        assert "het-agnostic" in MaxMinFairnessPolicy(heterogeneity_agnostic=True).display_name
        assert "+SS" in MaxMinFairnessPolicy(space_sharing=True).display_name


class TestSessionNormalizationCache:
    """The live session re-derives a job's normalization only when its inputs move."""

    @staticmethod
    def _min_normalized(policy, problem, allocation):
        matrix = policy.effective_matrix(problem)
        return min(
            policy.normalized_throughput_scale(problem, matrix, job_id)
            * effective_throughput(matrix, allocation, job_id)
            for job_id in problem.job_ids
        )

    def test_cluster_and_weight_changes_reach_the_live_rows(
        self, oracle, small_cluster, monkeypatch
    ):
        from dataclasses import replace

        from repro.core import build_throughput_matrix

        job_types = ("resnet50-bs64", "a3c-bs4", "lstm-bs80", "resnet18-bs64")
        jobs = {
            job_id: Job(job_id=job_id, job_type=job_type, total_steps=1e5)
            for job_id, job_type in enumerate(job_types)
        }
        matrix = build_throughput_matrix(list(jobs.values()), oracle)
        problem = PolicyProblem(jobs=jobs, throughputs=matrix, cluster_spec=small_cluster)
        policy = MaxMinFairnessPolicy()
        calls = []
        scale = MaxMinFairnessPolicy.normalized_throughput_scale

        def counted(self, problem, matrix, job_id):
            calls.append(job_id)
            return scale(self, problem, matrix, job_id)

        session = policy.session(problem)
        session.solve(problem)
        monkeypatch.setattr(MaxMinFairnessPolicy, "normalized_throughput_scale", counted)

        # A new snapshot of the same jobs, matrix and cluster: nothing to re-derive.
        session.solve(replace(problem, current_time=60.0))
        assert calls == []

        heavier = dict(jobs)
        heavier[2] = replace(jobs[2], priority_weight=3.0)
        bigger = ClusterSpec.from_counts(
            {"v100": 1, "p100": 2, "k80": 4}, registry=small_cluster.registry
        )
        for changed, touched in (
            (replace(problem, jobs=heavier), [2]),
            (replace(problem, jobs=heavier, cluster_spec=bigger), [0, 1, 2, 3]),
        ):
            calls.clear()
            live = session.solve(changed)
            assert calls == touched
            fresh = policy.compute_allocation(changed)
            assert self._min_normalized(policy, changed, live) == pytest.approx(
                self._min_normalized(policy, changed, fresh), rel=1e-9
            )

    def test_failed_first_alignment_leaves_nothing_behind(self):
        """A job nothing can normalize fails the solve; the session then serves the rest.

        The from-scratch alignment derives every factor before it adds a row,
        so the failure must not leave factors recorded for rows that were
        never written.
        """
        import numpy as np

        from repro.cluster import default_registry
        from repro.core import ThroughputMatrix
        from repro.exceptions import ConfigurationError

        registry = default_registry().subset(["v100"])
        spec = ClusterSpec.from_counts({"v100": 2}, registry=registry)
        rows = {(0,): np.array([[2.0]]), (1,): np.array([[1.0]]), (2,): np.array([[0.0]])}
        jobs = {i: Job(job_id=i, job_type="x", total_steps=1e3) for i in range(3)}
        broken = PolicyProblem(
            jobs=jobs, throughputs=ThroughputMatrix(registry, rows), cluster_spec=spec
        )
        policy = MaxMinFairnessPolicy()
        session = policy.session(broken)
        with pytest.raises(ConfigurationError, match="zero throughput"):
            session.solve(broken)

        del rows[(2,)], jobs[2]
        healthy = PolicyProblem(
            jobs=jobs, throughputs=ThroughputMatrix(registry, rows), cluster_spec=spec
        )
        live = session.solve(healthy)
        assert self._min_normalized(policy, healthy, live) == pytest.approx(
            self._min_normalized(policy, healthy, policy.compute_allocation(healthy)), rel=1e-9
        )


class TestSessionMatchesBuildObjective:
    """``MaxMinFairnessSession``'s claim: the live epigraph rows are ``build_objective``'s program.

    After every event of a churn sequence (a departure and an arrival per
    step, pair rows and all under ``+ss``), a fresh program holding the same
    variables and validity constraints plus ``build_objective``'s max-min
    objective reaches the live session's optimum.  The optimal vertex may
    differ where the optimum is not unique; the objective may not.
    """

    @pytest.mark.parametrize("spec", ["max_min_fairness", "max_min_fairness+ss"])
    def test_every_churn_event_reaches_the_fresh_program_optimum(self, oracle, spec):
        policy = make_policy(spec)
        session, optima = None, []
        for problem, deltas in churn_problems(oracle, num_events=8):
            if session is None:
                session = policy.session(problem)
                solve = session.program.solve

                def recording(*args, **kwargs):
                    solution = solve(*args, **kwargs)
                    optima.append(solution.objective_value)
                    return solution

                session.program.solve = recording
            else:
                session.apply(deltas)
            session.solve(problem)
            fresh = LinearProgram(name="fresh")
            variables = AllocationVariables(problem, policy.effective_matrix(problem), fresh)
            policy.build_objective(problem, variables, fresh)
            expected = fresh.solve().objective_value
            assert expected > 0
            assert optima[-1] == pytest.approx(expected, rel=1e-7)
        assert len(optima) == 9
        assert len(set(optima)) > 1  # the events move the optimum

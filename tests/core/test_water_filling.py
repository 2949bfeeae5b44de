"""Tests for the water-filling machinery (Section 4.3)."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, default_registry
from repro.core import PolicyProblem, ThroughputMatrix, WaterFillingAllocator
from repro.core.effective_throughput import effective_throughput
from repro.exceptions import ConfigurationError
from repro.workloads import Job


def _identical_jobs_problem(num_jobs=4, num_gpus=4):
    """The paper's worked example: 4 identical jobs on 4 identical GPUs."""
    registry = default_registry().subset(["v100"])
    matrix = ThroughputMatrix(
        registry, {(i,): np.array([[1.0]]) for i in range(num_jobs)}
    )
    spec = ClusterSpec.from_counts({"v100": num_gpus}, registry=registry)
    jobs = {i: Job(job_id=i, job_type="x", total_steps=1000.0) for i in range(num_jobs)}
    return PolicyProblem(jobs=jobs, throughputs=matrix, cluster_spec=spec), matrix


class TestWaterFilling:
    def test_paper_weighted_example(self):
        """Job 1 has weight 3, jobs 2-4 weight 1; 4 GPUs.

        First iteration: job 1 reaches throughput 1.0, the others 0.33; job 1
        bottlenecks; the remaining jobs are then raised to full-GPU
        allocations (Section 4.3's worked example).
        """
        problem, matrix = _identical_jobs_problem()
        allocator = WaterFillingAllocator(problem, matrix)
        result = allocator.run(initial_weights={0: 3.0, 1: 1.0, 2: 1.0, 3: 1.0})
        throughputs = [
            effective_throughput(matrix, result.allocation, job_id) for job_id in range(4)
        ]
        # Every job ends up with a full GPU: water filling removes the
        # leftover slack the one-shot LP would leave on jobs 2-4.
        for value in throughputs:
            assert value == pytest.approx(1.0, abs=0.05)

    def test_equal_weights_share_equally_under_contention(self):
        problem, matrix = _identical_jobs_problem(num_jobs=4, num_gpus=2)
        allocator = WaterFillingAllocator(problem, matrix)
        result = allocator.run(initial_weights={i: 1.0 for i in range(4)})
        throughputs = [
            effective_throughput(matrix, result.allocation, job_id) for job_id in range(4)
        ]
        for value in throughputs:
            assert value == pytest.approx(0.5, abs=0.05)

    def test_zero_weight_jobs_do_not_block(self):
        problem, matrix = _identical_jobs_problem(num_jobs=3, num_gpus=3)
        allocator = WaterFillingAllocator(problem, matrix)
        result = allocator.run(initial_weights={0: 1.0, 1: 0.0, 2: 0.0})
        assert effective_throughput(matrix, result.allocation, 0) == pytest.approx(1.0, abs=0.05)

    def test_all_zero_weights_rejected(self):
        problem, matrix = _identical_jobs_problem(num_jobs=2, num_gpus=2)
        allocator = WaterFillingAllocator(problem, matrix)
        with pytest.raises(ConfigurationError):
            allocator.run(initial_weights={0: 0.0, 1: 0.0})

    def test_allocation_valid(self, mixed_problem):
        allocator = WaterFillingAllocator(mixed_problem, mixed_problem.throughputs)
        result = allocator.run(
            initial_weights={job_id: 1.0 for job_id in mixed_problem.job_ids}
        )
        result.allocation.validate(mixed_problem.cluster_spec)

    def test_pareto_efficiency_no_slack_left(self, mixed_problem):
        """Water-filling allocations are Pareto efficient (Section 4.4):
        no job's throughput can rise without using more than the cluster."""
        allocator = WaterFillingAllocator(mixed_problem, mixed_problem.throughputs)
        result = allocator.run(
            initial_weights={job_id: 1.0 for job_id in mixed_problem.job_ids}
        )
        usage = result.allocation.worker_usage()
        capacity = mixed_problem.cluster_spec.counts_vector()
        # Every accelerator type is either saturated or every job is already
        # running 100% of the time.
        for column in range(len(capacity)):
            if usage[column] < capacity[column] - 0.05:
                for job_id in mixed_problem.job_ids:
                    assert result.allocation.job_total(job_id) >= 0.95

    def test_greedy_fallback_matches_milp(self, mixed_problem):
        with_milp = WaterFillingAllocator(
            mixed_problem, mixed_problem.throughputs, use_milp_bottleneck_detection=True
        ).run(initial_weights={job_id: 1.0 for job_id in mixed_problem.job_ids})
        greedy = WaterFillingAllocator(
            mixed_problem, mixed_problem.throughputs, use_milp_bottleneck_detection=False
        ).run(initial_weights={job_id: 1.0 for job_id in mixed_problem.job_ids})
        matrix = mixed_problem.throughputs
        for job_id in mixed_problem.job_ids:
            a = effective_throughput(matrix, with_milp.allocation, job_id)
            b = effective_throughput(matrix, greedy.allocation, job_id)
            assert a == pytest.approx(b, rel=0.1)

    def test_iterations_bounded(self, mixed_problem):
        allocator = WaterFillingAllocator(mixed_problem, mixed_problem.throughputs)
        result = allocator.run(
            initial_weights={job_id: 1.0 for job_id in mixed_problem.job_ids}
        )
        assert result.iterations <= mixed_problem.num_jobs + 2

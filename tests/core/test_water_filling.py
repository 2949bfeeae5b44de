"""Tests for the water-filling machinery (Section 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottleneck_milp_oracle import solve_bottleneck_milp
from repro.cluster import ClusterSpec, default_registry
from repro.core import (
    PolicyProblem,
    ThroughputMatrix,
    WaterFillingAllocator,
    build_throughput_matrix,
    make_policy,
)
from repro.core.aggregation import AggregatedProblem
from repro.core.effective_throughput import effective_throughput
from repro.core import water_filling
from repro.core.policy import AllocationVariables
from repro.core.water_filling import (
    _EPSILON,
    _IMPROVEMENT,
    _find_improvable,
    _LevelLoopProgram,
)
from repro.exceptions import ConfigurationError
from repro.solver.lp import LinearProgram
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

    @pytest.mark.parametrize("fixture", ["mixed_problem", "mixed_problem_ss"])
    def test_relaxation_matches_milp_oracle(self, request, monkeypatch, fixture):
        """The level loop ends where it ends with the textbook MILP deciding."""
        problem = request.getfixturevalue(fixture)
        matrix = problem.throughputs
        weights = {job_id: 1.0 for job_id in problem.job_ids}
        relaxed = WaterFillingAllocator(problem, matrix).run(initial_weights=weights)
        assert relaxed.detection_solves == relaxed.iterations
        assert relaxed.milp_fallbacks == relaxed.infeasible_detections == 0

        monkeypatch.setattr(
            water_filling, "_find_improvable", lambda *args: (solve_bottleneck_milp(*args), False)
        )
        oracle = WaterFillingAllocator(problem, matrix).run(initial_weights=weights)
        assert relaxed.bottleneck_order == oracle.bottleneck_order
        for job_id in problem.job_ids:
            assert effective_throughput(
                matrix, relaxed.allocation, job_id
            ) == pytest.approx(effective_throughput(matrix, oracle.allocation, job_id), abs=1e-6)

    def test_iterations_bounded(self, mixed_problem):
        allocator = WaterFillingAllocator(mixed_problem, mixed_problem.throughputs)
        result = allocator.run(
            initial_weights={job_id: 1.0 for job_id in mixed_problem.job_ids}
        )
        assert result.iterations <= mixed_problem.num_jobs + 2


def _aligned_loop(problem, matrix):
    """A level-loop program aligned to ``problem``."""
    program = LinearProgram(name="water_filling")
    loop = _LevelLoopProgram(program, AllocationVariables(problem, matrix, program))
    loop.align(problem)
    return loop


class TestBottleneckDetection:
    """The decisive LP relaxation against the Appendix A.1 MILP oracle."""

    @given(
        type_indices=st.lists(st.integers(0, 5), min_size=2, max_size=7),
        gpus=st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3)),
        flavour=st.sampled_from(["job", "grouped", "ss"]),
        iterations=st.one_of(st.none(), st.integers(1, 3)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_relaxation_equals_the_milp_optimum_cardinality(
        self, oracle, colocation_model, type_indices, gpus, flavour, iterations, seed
    ):
        """Property: whatever the state, the detected set is a MILP optimum.

        States come from the level loop itself (the levels after 1-3
        iterations or a full run, where detection rows are tight), with about
        half the jobs then lowered by 0-3 improvement thresholds so that
        headrooms straddle ``delta * n_g`` — over per-job problems,
        type-aggregated problems (``group_count > 1``: epsilon, delta and the
        indicator coefficient scale by ``n_g``) and ``+ss`` problems.
        """
        job_types = oracle.job_types.names
        jobs = [
            Job(job_id=i, job_type=job_types[t % len(job_types)], total_steps=1e5)
            for i, t in enumerate(type_indices)
        ]
        problem = PolicyProblem(
            jobs={job.job_id: job for job in jobs},
            throughputs=build_throughput_matrix(
                jobs,
                oracle,
                space_sharing=flavour == "ss",
                colocation_model=colocation_model if flavour == "ss" else None,
            ),
            cluster_spec=ClusterSpec.from_counts(dict(zip(("v100", "p100", "k80"), gpus))),
        )
        policy = make_policy("max_min_fairness_water_filling")
        if flavour == "grouped":
            problem = AggregatedProblem.build(problem, key=policy.aggregation_group_key).problem
        matrix = problem.throughputs
        loop = _aligned_loop(problem, matrix)
        levels = loop.run(
            policy.water_filling_weights(problem), max_iterations=iterations
        ).normalized_throughputs
        rng = np.random.default_rng(seed)
        for job_id in problem.job_ids:
            if rng.random() < 0.5:
                slack = rng.uniform(0.0, 3.0) * _IMPROVEMENT * problem.group_count(job_id)
                levels[job_id] = max(0.0, levels[job_id] - slack)
        candidates = {job_id for job_id in problem.job_ids if rng.random() < 0.7}

        chosen, _fell_back = _find_improvable(problem, matrix, loop._norms, levels, candidates)
        best = solve_bottleneck_milp(problem, matrix, loop._norms, levels, candidates)
        assert chosen <= candidates
        assert len(chosen) == len(best)
        # ... and the chosen set is itself feasible: the oracle keeps all of it.
        assert solve_bottleneck_milp(problem, matrix, loop._norms, levels, chosen) == chosen

    def test_non_decisive_relaxation_takes_the_integer_fallback(self, monkeypatch):
        """Two jobs that can each reach half of delta: LP says 1.0, MILP says 0.

        Each job already runs ``headroom`` short of a full GPU, so its relaxed
        indicator tops out at 1/2; the two halves sum to 1, which the
        decisive-LP rule must not read as "one job can improve".
        """
        problem, matrix = _identical_jobs_problem(num_jobs=2, num_gpus=2)
        loop = _aligned_loop(problem, matrix)
        headroom = 0.5 * (_IMPROVEMENT + _EPSILON) - _EPSILON
        levels = {job_id: loop._norms[job_id] * 1.0 - headroom for job_id in (0, 1)}

        milp_calls = []
        solve_milp = LinearProgram._solve_milp
        monkeypatch.setattr(
            LinearProgram,
            "_solve_milp",
            lambda self, integrality: milp_calls.append(self.name) or solve_milp(self, integrality),
        )
        chosen, fell_back = _find_improvable(problem, matrix, loop._norms, levels, {0, 1})
        assert fell_back and milp_calls == ["water_filling_detection"]
        assert chosen == solve_bottleneck_milp(problem, matrix, loop._norms, levels, {0, 1})
        assert chosen == set()

    def test_infeasible_detection_freezes_everything_on_the_record(self, monkeypatch):
        """An infeasible detection keeps its old outcome, but is counted."""
        from repro.exceptions import InfeasibleError

        problem, matrix = _identical_jobs_problem(num_jobs=3, num_gpus=2)

        def infeasible(*_args):
            raise InfeasibleError("forced")

        monkeypatch.setattr(water_filling, "_find_improvable", infeasible)
        result = WaterFillingAllocator(problem, matrix).run(
            initial_weights={job_id: 1.0 for job_id in problem.job_ids}
        )
        assert result.infeasible_detections == result.detection_solves == 1
        assert result.bottleneck_order == [{0, 1, 2}]

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
from repro.core.hierarchical import EntitySpec, HierarchicalPolicy
from repro.core.policy import AllocationVariables
from repro.core.water_filling import _EPSILON, _IMPROVEMENT, _LevelLoopProgram
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.solver.lp import LinearProgram
from repro.workloads import Job

from tests.equivalence import LEVEL_PROFILE_TOL, water_filling_level_profile


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
        in_play = _in_play_counts(monkeypatch)
        relaxed = WaterFillingAllocator(problem, matrix).run(initial_weights=weights)
        # One detection per iteration, except where a lone job was in play.
        assert len(in_play) == relaxed.iterations
        assert relaxed.detection_solves == relaxed.iterations - in_play.count(1)
        assert relaxed.milp_fallbacks == relaxed.infeasible_detections == 0

        loop = _aligned_loop(problem, matrix)
        loop.detection.find_improvable = lambda levels, in_play: (
            _mask(
                loop,
                solve_bottleneck_milp(
                    problem, matrix, _norms(loop), *_as_mappings(loop, levels, in_play)
                ),
            ),
            False,
        )
        oracle = loop.run(weights)
        assert relaxed.bottleneck_order == oracle.bottleneck_order
        for job_id in problem.job_ids:
            assert effective_throughput(
                matrix, relaxed.allocation, job_id
            ) == pytest.approx(effective_throughput(matrix, oracle.allocation, job_id), abs=1e-6)

    def test_cycling_guard_freezes_the_lowest_level_job(self):
        """A detection that calls everybody improvable still ends the loop.

        Each such iteration freezes the job in play with the lowest level
        (job 0 wins its tie with job 2 at 0.5); the last job, alone in play,
        freezes without a detection.
        """
        problem, matrix = _identical_jobs_problem(num_jobs=3, num_gpus=2)
        loop = _aligned_loop(problem, matrix)
        loop.detection.find_improvable = lambda levels, in_play: (in_play.copy(), False)
        result = loop.run({0: 1.0, 1: 2.0, 2: 1.0})
        assert result.bottleneck_order == [{0}, {2}, {1}]
        assert (result.iterations, result.detection_solves) == (3, 2)

    def test_iterations_bounded(self, mixed_problem):
        allocator = WaterFillingAllocator(mixed_problem, mixed_problem.throughputs)
        result = allocator.run(
            initial_weights={job_id: 1.0 for job_id in mixed_problem.job_ids}
        )
        assert result.iterations <= mixed_problem.num_jobs + 2


def _aligned_loop(problem, matrix, earlier=None):
    """A level-loop program aligned to ``problem``.

    With ``earlier`` (another problem) the loop is built for and run on that
    snapshot first and then moved to ``problem`` the way a session moves it:
    the detection program under test has a basis from other levels, rows
    that were rewritten or dropped, and indicator columns handed out of the
    recycling pool.
    """
    program = LinearProgram(name="water_filling")
    first = problem if earlier is None else earlier
    variables = AllocationVariables(first, first.throughputs, program)
    loop = _LevelLoopProgram(program, variables)
    loop.align(first)
    if earlier is not None:
        loop.run({job_id: 1.0 for job_id in earlier.job_ids})
        variables.update_to(problem, matrix)
        loop.align(problem)
    return loop


def _norms(loop):
    """The normalization factor each job's floor and level rows encode."""
    return {job_id: norm for job_id, (_terms, norm) in loop._rows.encoded.items()}


def _as_mappings(loop, levels, in_play):
    """The detection's array arguments as ``(levels by job, job ids in play)``."""
    job_ids = loop._job_order
    return (
        dict(zip(job_ids, levels.tolist())),
        {job_id for job_id, playing in zip(job_ids, in_play.tolist()) if playing},
    )


def _mask(loop, job_ids):
    """``job_ids`` as a mask in the loop's job order."""
    return np.array([job_id in job_ids for job_id in loop._job_order], dtype=bool)


def _detect(loop, levels, candidates):
    """``find_improvable`` over mappings: ``(chosen job ids, fell back)``."""
    job_ids = loop._job_order
    chosen, fell_back = loop.detection.find_improvable(
        np.array([levels[job_id] for job_id in job_ids], dtype=float), _mask(loop, candidates)
    )
    return {job_id for job_id, hit in zip(job_ids, chosen.tolist()) if hit}, fell_back


def _in_play_counts(monkeypatch):
    """How many jobs each level iteration has in play from here on, in order."""
    counts = []
    begin = _LevelLoopProgram._begin_iteration

    def recording(loop, weights, levels, in_play):
        counts.append(int(np.count_nonzero(in_play)))
        return begin(loop, weights, levels, in_play)

    monkeypatch.setattr(_LevelLoopProgram, "_begin_iteration", recording)
    return counts


def _warm_flags(monkeypatch):
    """``warm_started`` of every detection solve from here on, in order."""
    flags = []
    solve = LinearProgram.solve

    def recording(program, *args, **kwargs):
        solution = solve(program, *args, **kwargs)
        if program.name == "water_filling_detection":
            flags.append(solution.warm_started)
        return solution

    monkeypatch.setattr(LinearProgram, "solve", recording)
    return flags


class TestBottleneckDetection:
    """The decisive LP relaxation against the Appendix A.1 MILP oracle."""

    @given(
        type_indices=st.lists(st.integers(0, 5), min_size=2, max_size=7),
        gpus=st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3)),
        flavour=st.sampled_from(["job", "grouped", "ss"]),
        iterations=st.one_of(st.none(), st.integers(1, 3)),
        churned=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_relaxation_equals_the_milp_optimum_cardinality(
        self, oracle, colocation_model, type_indices, gpus, flavour, iterations, churned, seed
    ):
        """Property: whatever the state, the detected set is a MILP optimum.

        States come from the level loop itself (the levels after 1-3
        iterations or a full run, where detection rows are tight), with about
        half the jobs then lowered by 0-3 improvement thresholds so that
        headrooms straddle ``delta * n_g`` — over per-job problems,
        type-aggregated problems (``group_count > 1``: epsilon, delta and the
        indicator coefficient scale by ``n_g``) and ``+ss`` problems, on a
        first build and (``churned``) on a program that has already served
        another snapshot: the same jobs without the first and with one more.
        """
        job_types = oracle.job_types.names
        policy = make_policy("max_min_fairness_water_filling")
        cluster = ClusterSpec.from_counts(dict(zip(("v100", "p100", "k80"), gpus)))

        def snapshot(indexed_types):
            jobs = [
                Job(job_id=i, job_type=job_types[t % len(job_types)], total_steps=1e5)
                for i, t in indexed_types
            ]
            built = PolicyProblem(
                jobs={job.job_id: job for job in jobs},
                throughputs=build_throughput_matrix(
                    jobs,
                    oracle,
                    space_sharing=flavour == "ss",
                    colocation_model=colocation_model if flavour == "ss" else None,
                ),
                cluster_spec=cluster,
            )
            if flavour == "grouped":
                return AggregatedProblem.build(built, key=policy.aggregation_group_key).problem
            return built

        indexed = list(enumerate(type_indices))
        problem = snapshot(indexed)
        earlier = (
            snapshot(indexed[1:] + [(len(indexed), type_indices[0] + 1)]) if churned else None
        )
        matrix = problem.throughputs
        loop = _aligned_loop(problem, matrix, earlier=earlier)
        levels = loop.run(
            policy.water_filling_weights(problem), max_iterations=iterations
        ).normalized_throughputs
        rng = np.random.default_rng(seed)
        for job_id in problem.job_ids:
            if rng.random() < 0.5:
                slack = rng.uniform(0.0, 3.0) * _IMPROVEMENT * problem.group_count(job_id)
                levels[job_id] = max(0.0, levels[job_id] - slack)
        candidates = {job_id for job_id in problem.job_ids if rng.random() < 0.7}

        chosen, _fell_back = _detect(loop, levels, candidates)
        best = solve_bottleneck_milp(problem, matrix, _norms(loop), levels, candidates)
        assert chosen <= candidates
        if len(chosen) != len(best):
            # ``milp`` accepts a row violated by 1e-6 where the simplex wants
            # 1e-7, so a job within that of its threshold (seen: an indicator
            # of 0.9992) counts for the oracle only.  Then the oracle must
            # come down to the detected count on levels a hair (1e-5, a
            # hundredth of delta) higher, which are harder for everybody.
            harder = {
                job_id: level + 1e-5 * problem.group_count(job_id)
                for job_id, level in levels.items()
            }
            strict = solve_bottleneck_milp(problem, matrix, _norms(loop), harder, candidates)
            assert len(strict) <= len(chosen) < len(best)
        # ... and the chosen set is itself feasible: the oracle keeps all of it.
        assert solve_bottleneck_milp(problem, matrix, _norms(loop), levels, chosen) == chosen

    @pytest.mark.parametrize("fixture", ["mixed_problem", "mixed_problem_ss"])
    def test_oracle_agrees_on_a_program_that_served_another_snapshot(
        self, request, monkeypatch, oracle, colocation_model, fixture
    ):
        """Warm basis, recycled indicator column: still the MILP's answer.

        The loop first serves the mixed jobs with job 0 swapped for a
        newcomer; moving it to the fixture's snapshot drops the newcomer's
        row, releases its ``z`` column and hands a recycled column to job 0.
        Every detection of the run that follows is checked against the
        oracle, on the one program, from a basis.
        """
        problem = request.getfixturevalue(fixture)
        matrix = problem.throughputs
        space_sharing = matrix.has_space_sharing()
        jobs = [job for job_id, job in sorted(problem.jobs.items()) if job_id != 0]
        jobs.append(Job(job_id=len(problem.jobs), job_type="resnet18-bs64", total_steps=1e5))
        earlier = PolicyProblem(
            jobs={job.job_id: job for job in jobs},
            throughputs=build_throughput_matrix(
                jobs,
                oracle,
                space_sharing=space_sharing,
                colocation_model=colocation_model if space_sharing else None,
            ),
            cluster_spec=problem.cluster_spec,
        )
        loop = _aligned_loop(earlier, earlier.throughputs)
        detection = loop.detection
        program = detection.program
        loop.run({job_id: 1.0 for job_id in earlier.job_ids})
        columns_before = program.num_variables()
        loop._variables.update_to(problem, matrix)
        loop.align(problem)
        assert loop.detection is detection and detection.program is program
        assert program.num_variables() == columns_before, "job 0 reuses released columns"

        warm = _warm_flags(monkeypatch)
        find_improvable = detection.find_improvable

        def checked(level_vec, in_play):
            mask, fell_back = find_improvable(level_vec, in_play)
            levels, candidates = _as_mappings(loop, level_vec, in_play)
            chosen = _as_mappings(loop, level_vec, mask)[1]
            best = solve_bottleneck_milp(problem, matrix, _norms(loop), levels, candidates)
            assert len(chosen) == len(best) and chosen <= candidates
            assert solve_bottleneck_milp(problem, matrix, _norms(loop), levels, chosen) == chosen
            return mask, fell_back

        detection.find_improvable = checked
        result = loop.run({job_id: 1.0 for job_id in problem.job_ids})
        assert result.milp_fallbacks == 0
        assert warm == [True] * result.detection_solves
        fresh = WaterFillingAllocator(problem, matrix).run(
            initial_weights={job_id: 1.0 for job_id in problem.job_ids}
        )
        assert [len(frozen) for frozen in result.bottleneck_order] == [
            len(frozen) for frozen in fresh.bottleneck_order
        ]

    def test_non_decisive_relaxation_takes_the_integer_fallback(self, monkeypatch):
        """Two jobs that can each reach half of delta: LP says 1.0, MILP says 0.

        Each job already runs ``headroom`` short of a full GPU, so its relaxed
        indicator tops out at 1/2; the two halves sum to 1, which the
        decisive-LP rule must not read as "one job can improve".  The integer
        re-solve drops the live model; the detection after it passes the
        model again and answers for the new levels.
        """
        problem, matrix = _identical_jobs_problem(num_jobs=2, num_gpus=2)
        loop = _aligned_loop(problem, matrix)
        headroom = 0.5 * (_IMPROVEMENT + _EPSILON) - _EPSILON
        levels = {job_id: _norms(loop)[job_id] * 1.0 - headroom for job_id in (0, 1)}

        milp_calls = []
        solve_milp = LinearProgram._solve_milp
        monkeypatch.setattr(
            LinearProgram,
            "_solve_milp",
            lambda self, integrality: milp_calls.append(self.name) or solve_milp(self, integrality),
        )
        chosen, fell_back = _detect(loop, levels, {0, 1})
        assert fell_back and milp_calls == ["water_filling_detection"]
        assert chosen == solve_bottleneck_milp(problem, matrix, _norms(loop), levels, {0, 1})
        assert chosen == set()

        warm = _warm_flags(monkeypatch)
        assert _detect(loop, {0: 0.0, 1: 0.0}, {0, 1}) == ({0, 1}, False)
        assert warm == [False] and milp_calls.count("water_filling_detection") == 1

    def test_infeasible_detection_freezes_everything_on_the_record(self, monkeypatch):
        """An infeasible detection keeps its old outcome, but is counted.

        The paper's weighted example (job 0 bottlenecks alone, then the
        rest), on a live session whose first detection is made infeasible for
        real: one row of the persistent program is asked for an unreachable
        throughput just before HiGHS runs.  Everything in play freezes, once,
        on the record — and the session's next re-allocation is a normal one.
        """
        problem, _matrix = _identical_jobs_problem()
        jobs = dict(problem.jobs)
        jobs[0] = Job(job_id=0, job_type="x", total_steps=1000.0, priority_weight=3.0)
        problem = PolicyProblem(
            jobs=jobs, throughputs=problem.throughputs, cluster_spec=problem.cluster_spec
        )
        policy = make_policy("max_min_fairness_water_filling")
        session = policy.session(problem)
        solve = LinearProgram.solve
        sabotaged = []

        def unreachable_once(program, *args, **kwargs):
            if program is session.detection_program and not sabotaged:
                sabotaged.append(max(program._constraints))
                program.set_constraint_bounds_from_arrays(sabotaged, lower=1e9)
            return solve(program, *args, **kwargs)

        monkeypatch.setattr(LinearProgram, "solve", unreachable_once)
        session.solve(problem)
        result = session.last_result
        assert len(sabotaged) == 1
        assert result.infeasible_detections == result.detection_solves == 1
        assert result.bottleneck_order == [{0, 1, 2, 3}]

        allocation = session.solve(problem)
        result = session.last_result
        fresh = policy.compute_with_diagnostics(problem)
        assert result.infeasible_detections == fresh.infeasible_detections == 0
        assert result.bottleneck_order == fresh.bottleneck_order == [{0}, {1, 2, 3}]
        np.testing.assert_allclose(
            water_filling_level_profile(policy, problem, allocation),
            water_filling_level_profile(policy, problem, fresh.allocation),
            atol=LEVEL_PROFILE_TOL,
        )


class TestSessionNormalizationCache:
    """The level loop re-derives a job's norm only when one of its inputs moves."""

    def test_unchanged_snapshot_costs_no_calls(self, mixed_problem, monkeypatch):
        from dataclasses import replace

        from repro.core import water_filling

        problem = mixed_problem
        policy = make_policy("hierarchical")
        session = policy.session(problem)
        session.solve(problem)
        calls = []
        scale = water_filling.normalized_throughput_scale

        def counted(matrix, cluster_spec, job_id, **kwargs):
            calls.append(job_id)
            return scale(matrix, cluster_spec, job_id, **kwargs)

        monkeypatch.setattr(water_filling, "normalized_throughput_scale", counted)
        # A new snapshot of the same jobs, matrix and cluster: nothing to re-derive,
        # for the level rows or for the detection rows that reuse their norms.
        session.solve(replace(problem, current_time=60.0))
        assert calls == []

        bigger = ClusterSpec.from_counts(
            {"v100": 1, "p100": 2, "k80": 4}, registry=problem.cluster_spec.registry
        )
        resized = replace(problem, cluster_spec=bigger)
        live = session.solve(resized)
        assert calls == list(problem.job_ids)
        np.testing.assert_allclose(
            water_filling_level_profile(policy, resized, live),
            water_filling_level_profile(policy, resized, policy.compute_allocation(resized)),
            atol=LEVEL_PROFILE_TOL,
        )


class _RecordingLoop(_LevelLoopProgram):
    """A level loop that notes how many jobs each iteration has in play."""

    def __init__(self, program, variables):
        super().__init__(program, variables)
        self.in_play_counts = []

    def _begin_iteration(self, weights, levels, in_play):
        self.in_play_counts.append(int(np.count_nonzero(in_play)))
        super()._begin_iteration(weights, levels, in_play)


class _ForcedDetectionLoop(_RecordingLoop):
    """The same loop solving a detection on every iteration, lone job or not.

    ``lone_detections`` receives ``(chosen anybody, fell back)`` of each
    detection made with a single job in play (``"infeasible"`` if it raised).
    """

    _ELIDE_LONE_DETECTION = False

    def __init__(self, program, variables):
        super().__init__(program, variables)
        self.lone_detections = []
        detect = self.detection.find_improvable

        def recorded(levels, in_play):
            lone = np.count_nonzero(in_play) == 1
            try:
                chosen, fell_back = detect(levels, in_play)
            except InfeasibleError:
                if lone:
                    self.lone_detections.append("infeasible")
                raise
            if lone:
                self.lone_detections.append((bool(chosen.any()), fell_back))
            return chosen, fell_back

        self.detection.find_improvable = recorded


class TestLoneCandidateElision:
    """An iteration with one job in play freezes it without a detection LP."""

    @given(
        type_indices=st.lists(st.integers(0, 5), min_size=1, max_size=6),
        gpus=st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)),
        space_sharing=st.booleans(),
        aggregated=st.booleans(),
        entities=st.one_of(
            st.none(),
            st.lists(
                st.tuples(st.floats(0.25, 4.0), st.sampled_from(["fairness", "fifo"])),
                min_size=1,
                max_size=3,
            ),
        ),
        arrivals=st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_elided_run_matches_a_run_that_detects_every_time(
        self, oracle, colocation_model, type_indices, gpus, space_sharing, aggregated,
        entities, arrivals,
    ):
        """Property: the elision changes the detection count and nothing else.

        Small problems, per job or type-aggregated, with or without space
        sharing, under single-level weights or a hierarchy of fairness and
        FIFO entities (whose redistribution hands weight to waiting jobs, so
        more iterations can follow a lone one).  Each is run twice on fresh
        programs: once as the loop runs, once with a detection forced on
        every iteration.  The runs agree bit for bit, every forced lone
        detection finds nobody improvable without the integer fallback, and
        the elided run solves one detection per iteration that had more than
        one job in play.
        """
        job_types = oracle.job_types.names
        jobs = [
            Job(
                job_id=i,
                job_type=job_types[t % len(job_types)],
                total_steps=1e5,
                arrival_time=float(arrivals.randint(0, 3)),
                entity_id=None if entities is None else i % len(entities),
            )
            for i, t in enumerate(type_indices)
        ]
        if entities is None:
            policy = make_policy("max_min_fairness_water_filling")
        else:
            policy = HierarchicalPolicy(
                [
                    EntitySpec(entity_id, weight=weight, internal_policy=internal)
                    for entity_id, (weight, internal) in enumerate(entities)
                ]
            )
        problem = PolicyProblem(
            jobs={job.job_id: job for job in jobs},
            throughputs=build_throughput_matrix(
                jobs,
                oracle,
                space_sharing=space_sharing,
                colocation_model=colocation_model if space_sharing else None,
            ),
            cluster_spec=ClusterSpec.from_counts(dict(zip(("v100", "p100", "k80"), gpus))),
        )
        if aggregated:
            problem = AggregatedProblem.build(problem, key=policy.aggregation_group_key).problem

        def run(loop_class):
            program = LinearProgram(name="water_filling")
            loop = loop_class(program, AllocationVariables(problem, problem.throughputs, program))
            loop.align(problem)
            result = loop.run(
                policy.water_filling_weights(problem),
                redistribute=policy.water_filling_redistribution(problem),
            )
            return loop, result

        elided_loop, elided = run(_RecordingLoop)
        forced_loop, forced = run(_ForcedDetectionLoop)

        assert elided.bottleneck_order == forced.bottleneck_order
        assert elided.normalized_throughputs == forced.normalized_throughputs
        assert elided.allocation.combinations == forced.allocation.combinations
        assert np.array_equal(elided.allocation.matrix, forced.allocation.matrix)
        lone = elided_loop.in_play_counts.count(1)
        assert forced_loop.in_play_counts == elided_loop.in_play_counts
        assert forced_loop.lone_detections == [(False, False)] * lone
        assert elided.detection_solves == elided.iterations - lone
        assert forced.detection_solves == forced.iterations

"""Tests for the incremental allocation engine and its colocation cache."""

import numpy as np
import pytest

from repro.core import AllocationEngine, PairThroughputCache, build_throughput_matrix
from repro.exceptions import ConfigurationError, UnknownJobError
from repro.workloads import ColocationModel, Job, ThroughputOracle, TraceGenerator


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def model(oracle):
    return ColocationModel(oracle)


def _jobs(oracle, num_jobs, seed=0):
    trace = TraceGenerator(oracle=oracle).generate_static(num_jobs=num_jobs, seed=seed)
    return list(trace.jobs)


def _assert_matrices_equal(incremental, reference):
    assert incremental.combinations == reference.combinations
    for combination in reference.combinations:
        np.testing.assert_allclose(
            incremental.row(combination), reference.row(combination)
        )


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("space_sharing", [False, True])
    def test_matches_from_scratch_after_arrivals(self, oracle, space_sharing):
        jobs = _jobs(oracle, 12)
        engine = AllocationEngine(oracle, space_sharing=space_sharing)
        for i, job in enumerate(jobs):
            engine.add_job(job)
            reference = build_throughput_matrix(
                jobs[: i + 1], oracle, space_sharing=space_sharing
            )
            _assert_matrices_equal(engine.matrix(), reference)

    @pytest.mark.parametrize("space_sharing", [False, True])
    def test_matches_from_scratch_after_completions(self, oracle, space_sharing):
        jobs = _jobs(oracle, 12)
        engine = AllocationEngine(oracle, space_sharing=space_sharing)
        engine.add_jobs(jobs)
        remaining = {job.job_id: job for job in jobs}
        for job in jobs[:-1]:
            engine.remove_job(job.job_id)
            del remaining[job.job_id]
            reference = build_throughput_matrix(
                list(remaining.values()), oracle, space_sharing=space_sharing
            )
            _assert_matrices_equal(engine.matrix(), reference)

    def test_matches_under_interleaved_churn(self, oracle):
        jobs = _jobs(oracle, 30, seed=7)
        engine = AllocationEngine(oracle, space_sharing=True)
        active = {}
        rng = np.random.default_rng(1)
        for i, job in enumerate(jobs):
            engine.add_job(job)
            active[job.job_id] = job
            if i % 3 == 2 and len(active) > 2:
                victim = int(rng.choice(sorted(active)))
                engine.remove_job(victim)
                del active[victim]
            reference = build_throughput_matrix(
                list(active.values()), oracle, space_sharing=True
            )
            _assert_matrices_equal(engine.matrix(), reference)

    @pytest.mark.parametrize("aggregation", ["job", "type"])
    def test_multi_worker_jobs_get_no_pair_rows(self, oracle, aggregation):
        """Pairs join single-worker jobs only: the rate rule's pair case has no scale factor."""
        jobs = [
            Job(job_id=0, job_type="resnet50-bs64", total_steps=1000.0),
            Job(job_id=1, job_type="a3c-bs4", total_steps=1000.0, scale_factor=4),
            Job(job_id=2, job_type="a3c-bs4", total_steps=1000.0),
            Job(job_id=3, job_type="a3c-bs4", total_steps=1000.0, scale_factor=2),
        ]
        engine = AllocationEngine(oracle, space_sharing=True, aggregation=aggregation)
        engine.add_jobs(jobs)
        if aggregation == "job":
            reference = build_throughput_matrix(jobs, oracle, space_sharing=True)
            _assert_matrices_equal(engine.matrix(), reference)
        combinations = engine.matrix().combinations
        assert (0, 2) in combinations  # the single-worker jobs do pair up
        for combination in combinations:
            assert len(combination) == 1 or not {1, 3} & set(combination)

    def test_custom_threshold_respected(self, oracle, model):
        jobs = _jobs(oracle, 10)
        engine = AllocationEngine(
            oracle, space_sharing=True, colocation_model=model, colocation_threshold=1.5
        )
        engine.add_jobs(jobs)
        reference = build_throughput_matrix(
            jobs, oracle, space_sharing=True, colocation_model=model, colocation_threshold=1.5
        )
        _assert_matrices_equal(engine.matrix(), reference)


class TestEngineBookkeeping:
    def test_duplicate_add_rejected(self, oracle):
        engine = AllocationEngine(oracle)
        job = Job(job_id=0, job_type="resnet50-bs64", total_steps=100.0)
        engine.add_job(job)
        with pytest.raises(ConfigurationError):
            engine.add_job(job)

    def test_remove_unknown_rejected(self, oracle):
        engine = AllocationEngine(oracle)
        with pytest.raises(UnknownJobError):
            engine.remove_job(7)

    def test_empty_matrix_rejected(self, oracle):
        engine = AllocationEngine(oracle)
        with pytest.raises(ConfigurationError):
            engine.matrix()
        job = Job(job_id=0, job_type="resnet50-bs64", total_steps=100.0)
        engine.add_job(job)
        engine.matrix()
        engine.remove_job(0)
        with pytest.raises(ConfigurationError):
            engine.matrix()

    def test_membership_and_len(self, oracle):
        engine = AllocationEngine(oracle)
        jobs = _jobs(oracle, 4)
        engine.add_jobs(jobs)
        assert len(engine) == 4
        assert jobs[0].job_id in engine
        engine.remove_job(jobs[0].job_id)
        assert jobs[0].job_id not in engine
        assert engine.job_ids == tuple(sorted(j.job_id for j in jobs[1:]))

    def test_matrix_memoized_until_next_event(self, oracle):
        engine = AllocationEngine(oracle)
        jobs = _jobs(oracle, 3)
        engine.add_jobs(jobs)
        first = engine.matrix()
        assert engine.matrix() is first
        engine.remove_job(jobs[0].job_id)
        assert engine.matrix() is not first


class TestPairThroughputCache:
    def test_rows_memoized_at_type_level(self, oracle, model):
        cache = PairThroughputCache(model, tuple(oracle.registry.names))
        row_one = cache.row("resnet50-bs64", "a3c-bs4")
        row_two = cache.row("resnet50-bs64", "a3c-bs4")
        assert cache.misses == 1 and cache.hits == 1
        if row_one is not None:
            np.testing.assert_allclose(row_one, row_two)

    def test_flipped_query_reuses_entry_and_swaps_rows(self, oracle, model):
        cache = PairThroughputCache(model, tuple(oracle.registry.names))
        forward = cache.row("resnet50-bs64", "a3c-bs4")
        backward = cache.row("a3c-bs4", "resnet50-bs64")
        assert cache.misses == 1 and cache.hits == 1
        assert forward is not None and backward is not None
        np.testing.assert_allclose(forward[0], backward[1])
        np.testing.assert_allclose(forward[1], backward[0])

    def test_invalidate_clears_entries(self, oracle, model):
        cache = PairThroughputCache(model, tuple(oracle.registry.names))
        cache.row("resnet50-bs64", "a3c-bs4")
        assert len(cache) == 1
        cache.invalidate()
        assert len(cache) == 0
        cache.row("resnet50-bs64", "a3c-bs4")
        assert cache.misses == 2

    def test_observe_refreshes_cached_pair_rows(self, oracle):
        """Estimator refinements must reach allocations computed after observe()."""
        from repro.estimator.estimator import ThroughputEstimator
        from repro.workloads import ColocatedThroughputs

        estimator = ThroughputEstimator(ColocationModel(oracle))
        jobs = [
            Job(job_id=0, job_type="resnet50-bs64", total_steps=100.0),
            Job(job_id=1, job_type="a3c-bs4", total_steps=100.0),
        ]
        engine = AllocationEngine(oracle, space_sharing=True, colocation_model=estimator)
        engine.add_jobs(jobs)
        before = engine.matrix()
        assert engine.matrix() is before  # unchanged version stays memoized

        isolated_a = oracle.throughput("resnet50-bs64", "v100")
        isolated_b = oracle.throughput("a3c-bs4", "v100")
        estimator.observe(
            "resnet50-bs64",
            "a3c-bs4",
            "v100",
            ColocatedThroughputs(first=0.9 * isolated_a, second=0.9 * isolated_b),
        )
        after = engine.matrix()
        assert after is not before
        reference = build_throughput_matrix(
            jobs, oracle, space_sharing=True, colocation_model=estimator
        )
        _assert_matrices_equal(after, reference)

    def test_observe_then_arrival_still_refreshes_existing_pairs(self, oracle):
        """An arrival between observe() and matrix() must not strand stale rows."""
        from repro.estimator.estimator import ThroughputEstimator
        from repro.workloads import ColocatedThroughputs

        estimator = ThroughputEstimator(ColocationModel(oracle))
        jobs = [
            Job(job_id=0, job_type="resnet50-bs64", total_steps=100.0),
            Job(job_id=1, job_type="a3c-bs4", total_steps=100.0),
        ]
        engine = AllocationEngine(oracle, space_sharing=True, colocation_model=estimator)
        engine.add_jobs(jobs)
        engine.matrix()

        # Refinement makes the (0, 1) pair worthless...
        estimator.observe(
            "resnet50-bs64",
            "a3c-bs4",
            "v100",
            ColocatedThroughputs(first=0.0, second=0.0),
        )
        # ...and a new job arrives before the next allocation recomputation.
        newcomer = Job(job_id=2, job_type="lstm-bs20", total_steps=100.0)
        engine.add_job(newcomer)
        reference = build_throughput_matrix(
            jobs + [newcomer], oracle, space_sharing=True, colocation_model=estimator
        )
        _assert_matrices_equal(engine.matrix(), reference)

    def test_cache_row_mutation_does_not_corrupt_cache(self, oracle, model):
        """row() returns copies; mutating a returned row must not poison later hits."""
        cache = PairThroughputCache(model, tuple(oracle.registry.names))
        first = cache.row("resnet50-bs64", "a3c-bs4")
        assert first is not None
        pristine = first.copy()
        first[:] = -1.0
        np.testing.assert_allclose(cache.row("resnet50-bs64", "a3c-bs4"), pristine)

    def test_engine_reuses_cache_across_jobs_of_same_type(self, oracle, model):
        jobs = [
            Job(job_id=i, job_type="resnet50-bs64" if i % 2 == 0 else "a3c-bs4", total_steps=100.0)
            for i in range(8)
        ]
        engine = AllocationEngine(oracle, space_sharing=True, colocation_model=model)
        engine.add_jobs(jobs)
        cache = engine.colocation_cache
        # 8 jobs of 2 types -> 28 job pairs but only 3 distinct type pairs.
        assert cache.misses == 3
        assert cache.hits == 28 - 3


class TestSortedBlocks:
    """``matrix()`` adopts blocks that ``add_job`` / ``remove_job`` edit between calls."""

    def test_batched_edits_match_from_scratch(self, oracle):
        jobs = _jobs(oracle, 24, seed=3)
        engine = AllocationEngine(oracle, space_sharing=True)
        active = {}
        rng = np.random.default_rng(5)
        earlier = []
        for start in range(0, len(jobs), 4):
            for job in jobs[start : start + 4]:  # several arrivals per matrix() call
                engine.add_job(job)
                active[job.job_id] = job
            # Departures, possibly of a job added since the last matrix(); an
            # odd id is re-added at once, so its rows leave and come back.
            for victim in rng.choice(sorted(active), size=2, replace=False).tolist():
                engine.remove_job(victim)
                if victim % 2:
                    engine.add_job(active[victim])
                else:
                    del active[victim]
            matrix = engine.matrix()
            _assert_matrices_equal(
                matrix, build_throughput_matrix(list(active.values()), oracle, space_sharing=True)
            )
            earlier.append((matrix, {c: matrix.row(c) for c in matrix.combinations}))
        # A matrix handed out earlier still reads what it read then.
        for matrix, rows in earlier:
            for combination, row in rows.items():
                np.testing.assert_array_equal(matrix.row(combination), row)

    def test_rows_are_validated_when_they_enter_the_block(self, monkeypatch):
        oracle = ThroughputOracle()
        engine = AllocationEngine(oracle)
        engine.add_job(Job(job_id=0, job_type="resnet50-bs64", total_steps=1000.0))
        engine.matrix()
        monkeypatch.setattr(
            oracle, "throughput_vector", lambda *args, **kwargs: np.array([1.0, -1.0, 1.0])
        )
        engine.add_job(Job(job_id=1, job_type="a3c-bs4", total_steps=1000.0))
        with pytest.raises(ConfigurationError, match="negative"):
            engine.matrix()

"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec, default_registry
from repro.core import PolicyProblem, ThroughputMatrix, build_throughput_matrix
from repro.core.allocation import Allocation
from repro.scheduler import ClusterScheduler
from repro.workloads import (
    ColocationModel,
    Job,
    ThroughputOracle,
    TraceGenerator,
    TraceGeneratorConfig,
)


@pytest.fixture(scope="session")
def registry():
    """The default V100/P100/K80 accelerator registry."""
    return default_registry()


@pytest.fixture(scope="session")
def oracle():
    """The synthetic throughput oracle over the Table 2 workload."""
    return ThroughputOracle()


@pytest.fixture(scope="session")
def colocation_model(oracle):
    return ColocationModel(oracle)


@pytest.fixture
def small_cluster(registry):
    """A small heterogeneous cluster: 2 V100, 2 P100, 2 K80."""
    return ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2}, registry=registry)


@pytest.fixture
def tiny_cluster_v100_k80(registry):
    """The Section 4.1 worked-example cluster: 1 V100 and 1 K80."""
    sub = registry.subset(["v100", "k80"])
    return ClusterSpec.from_counts({"v100": 1, "k80": 1}, registry=sub)


@pytest.fixture
def worked_example_matrix(registry):
    """The Section 4.1 throughput matrix T = [[4,1],[3,1],[2,1]] on (V100, K80)."""
    sub = registry.subset(["v100", "k80"])
    return ThroughputMatrix(
        sub,
        {
            (0,): np.array([[4.0, 1.0]]),
            (1,): np.array([[3.0, 1.0]]),
            (2,): np.array([[2.0, 1.0]]),
        },
    )


@pytest.fixture
def worked_example_problem(worked_example_matrix, tiny_cluster_v100_k80):
    jobs = {
        i: Job(job_id=i, job_type="resnet50-bs64", total_steps=10_000.0, arrival_time=float(i))
        for i in range(3)
    }
    return PolicyProblem(
        jobs=jobs,
        throughputs=worked_example_matrix,
        cluster_spec=tiny_cluster_v100_k80,
    )


def make_jobs(oracle, job_types, scale_factors=None, steps=50_000.0):
    """Helper: build Job objects for the given job types."""
    scale_factors = scale_factors or [1] * len(job_types)
    return [
        Job(
            job_id=i,
            job_type=job_type,
            total_steps=steps,
            arrival_time=float(i * 10),
            scale_factor=scale,
        )
        for i, (job_type, scale) in enumerate(zip(job_types, scale_factors))
    ]


@pytest.fixture
def mixed_jobs(oracle):
    """Six single-worker jobs spanning heavy and light models."""
    return make_jobs(
        oracle,
        [
            "resnet50-bs64",
            "a3c-bs4",
            "lstm-bs20",
            "transformer-bs64",
            "resnet18-bs128",
            "recoder-bs2048",
        ],
    )


@pytest.fixture
def mixed_problem(mixed_jobs, oracle, small_cluster):
    matrix = build_throughput_matrix(mixed_jobs, oracle)
    return PolicyProblem(
        jobs={job.job_id: job for job in mixed_jobs},
        throughputs=matrix,
        cluster_spec=small_cluster,
    )


@pytest.fixture
def mixed_problem_ss(mixed_jobs, oracle, small_cluster, colocation_model):
    matrix = build_throughput_matrix(
        mixed_jobs, oracle, space_sharing=True, colocation_model=colocation_model
    )
    return PolicyProblem(
        jobs={job.job_id: job for job in mixed_jobs},
        throughputs=matrix,
        cluster_spec=small_cluster,
    )


@pytest.fixture(scope="session")
def trace_generator(oracle):
    return TraceGenerator(oracle)


@pytest.fixture(scope="session")
def multi_worker_trace_generator(oracle):
    return TraceGenerator(oracle, config=TraceGeneratorConfig(multi_worker=True))


# -- the paper's invariants, checked on every scheduler the suite drives ---------


class _DemandFromProblem(Allocation):
    """An allocation read with each row's demand taken from the problem's scale factors.

    :meth:`Allocation.validate` reads ``demand``; the monitor's copy answers
    it from the session's problem, so ``Allocation.demand`` itself (which a
    test counts reads of) is never read by the monitor.
    """

    @property
    def demand(self):
        return self.monitor_demand


def _check_allocation(scheduler, allocation):
    """Section 3.1 validity: entries in [0, 1], per-job totals <= 1, capacity (3)."""
    problem = scheduler._session.problem
    checked = object.__new__(_DemandFromProblem)
    vars(checked).update(vars(allocation))
    checked.monitor_demand = tuple(
        max(problem.scale_factor(job_id) for job_id in combination)
        for combination in allocation.combinations
    )
    checked.validate(scheduler._cluster_spec)


def _check_clock(scheduler, now):
    """The clock is never behind what the scheduler already holds: capacity epochs, admissions."""
    epoch = scheduler._capacity_epochs[-1][0]
    assert now >= epoch, f"clock {now} behind the capacity epoch at {epoch}"
    admitted = scheduler._active.admitted_at
    if len(admitted):
        latest = admitted.max()
        assert now >= latest, f"clock {now} behind a job admitted at {latest}"


def _check_progress(scheduler, now):
    """``steps_done <= total_steps``, and busy worker-seconds within capacity-time per type."""
    table = scheduler._active
    steps = np.asarray(table.steps_done, dtype=float)
    over = steps > table.total_steps * (1.0 + 1e-9) + 1e-6
    assert not over.any(), f"steps beyond total_steps: {steps[over]} of {table.total_steps[over]}"
    capacity = scheduler._capacity_worker_seconds(now)
    for name, busy in scheduler._busy_seconds.items():
        assert busy <= capacity[name] * (1.0 + 1e-9) + 1e-6, (
            f"{name}: {busy} busy worker-seconds in {capacity[name]} of capacity"
        )


@pytest.fixture(autouse=True)
def invariant_monitor(monkeypatch):
    """Check the paper's invariants after every solve and every step of every scheduler.

    After a solve, the allocation passes :meth:`Allocation.validate` against
    the live cluster.  After a step, the clock has not moved back (within the
    step, or behind the scheduler's own capacity epochs and admissions, which
    a restore brings back with the clock), no job has done more steps than it
    has, and no accelerator type has been busy longer than its capacity-time
    integral.
    """
    solve, step = ClusterScheduler._solve_allocation, ClusterScheduler.step

    def checked_solve(self, current_time):
        allocation = solve(self, current_time)
        _check_allocation(self, allocation)
        return allocation

    def checked_step(self):
        before = self._clock.now()
        _check_clock(self, before)
        more = step(self)
        after = self._clock.now()
        assert after >= before, f"clock moved back in a step: {before} -> {after}"
        _check_clock(self, after)
        _check_progress(self, after)
        return more

    monkeypatch.setattr(ClusterScheduler, "_solve_allocation", checked_solve)
    monkeypatch.setattr(ClusterScheduler, "step", checked_step)

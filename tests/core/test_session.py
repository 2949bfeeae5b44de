"""Registry-wide session-vs-rebuild equivalence over randomized churn.

Every registry policy — in every ``+ss`` / ``@agnostic`` variant its
constructor accepts, water-filling and hierarchical included — is driven
through the shared churn harness
(:func:`repro.harness.run_churn_equivalence`): one long-lived
session fed the engine's delta stream, compared at every step against a
fresh :class:`~repro.core.session.RebuildSession` on the identical problem
snapshot.  The comparison protocol (exact rows when the optima are unique,
the policy's own objective — or, for the water-filling family, the full
sorted level profile — to solver tolerance otherwise) lives in
``tests/equivalence.py``.
"""

import typing

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import (
    AllocationEngine,
    EstimateRefined,
    JobAdded,
    JobRemoved,
    PolicyProblem,
    available_policies,
    make_policy,
    parse_policy_spec,
)
from repro.core.session import PolicyDelta, RebuildSession, TypeCountChanged
from repro.core.water_filling import WaterFillingSession
from repro.estimator import ThroughputEstimator
from repro.exceptions import ConfigurationError
from repro.workloads import (
    ColocatedThroughputs,
    ColocationModel,
    Job,
    ThroughputOracle,
    TraceGenerator,
)

from tests.equivalence import assert_session_equivalent, run_churn_equivalence, summarize_deltas

#: Variant suffixes every base spec is probed with.
_VARIANT_SUFFIXES = ("", "+ss", "@agnostic", "+ss@agnostic")


def _registry_variant_specs():
    """Every base registry policy crossed with the variants it supports."""
    specs = []
    for name in available_policies():
        if parse_policy_spec(name)[0] != name:
            continue  # alias spelling of another spec
        for suffix in _VARIANT_SUFFIXES:
            spec = name + suffix
            try:
                make_policy(spec)
            except ConfigurationError:
                continue  # variant not supported by this constructor
            specs.append(spec)
    return specs


_ALL_SPECS = _registry_variant_specs()


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def cluster(oracle):
    return ClusterSpec.from_counts(
        {name: 2 for name in oracle.registry.names}, registry=oracle.registry
    )


class TestSessionMatchesScratch:
    @pytest.mark.parametrize("spec", _ALL_SPECS)
    def test_randomized_churn_equivalence(self, spec, oracle, cluster):
        counters = run_churn_equivalence(spec, oracle, cluster)
        assert counters["steps"] >= 5

    def test_variant_sweep_covers_the_whole_registry(self):
        """Guard: the parametrization really spans every base and both axes."""
        bases = {parse_policy_spec(spec)[0] for spec in _ALL_SPECS}
        assert bases == {
            name for name in available_policies() if parse_policy_spec(name)[0] == name
        }
        assert "hierarchical" in bases
        assert "max_min_fairness_water_filling+ss" in _ALL_SPECS
        assert "hierarchical+ss@agnostic" in _ALL_SPECS

    def test_water_filling_sessions_are_incremental(self, oracle, cluster):
        """The water-filling family no longer falls back to RebuildSession."""
        trace = TraceGenerator(oracle=oracle).generate_static(num_jobs=4, seed=0)
        jobs = {job.with_entity(job.job_id % 3).job_id: job.with_entity(job.job_id % 3) for job in trace.jobs}
        from repro.core.throughput_matrix import build_throughput_matrix

        problem = PolicyProblem(
            jobs=jobs,
            throughputs=build_throughput_matrix(list(jobs.values()), oracle),
            cluster_spec=cluster,
        )
        for spec in ("max_min_fairness_water_filling", "hierarchical"):
            session = make_policy(spec).session(problem)
            assert isinstance(session, WaterFillingSession)

    @pytest.mark.parametrize("spec", ["max_min_fairness+ss", "max_min_fairness_water_filling+ss"])
    def test_estimate_refinement_reaches_session(self, spec, oracle, cluster):
        """EstimateRefined deltas must update the session's pair rows."""
        model = ColocationModel(oracle)
        estimator = ThroughputEstimator(model, profile_fraction=0.4, seed=3)
        policy = make_policy(spec)
        scratch_policy = make_policy(spec)
        engine = AllocationEngine(
            oracle, space_sharing=True, colocation_model=estimator
        )
        trace = TraceGenerator(oracle=oracle).generate_static(num_jobs=8, seed=5)
        jobs = list(trace.jobs)
        engine.add_jobs(jobs)
        active = {job.job_id: job for job in jobs}
        problem = PolicyProblem(
            jobs=active, throughputs=engine.matrix(), cluster_spec=cluster
        )
        session = policy.session(problem)
        session.solve(problem)
        engine.drain_deltas()

        # Refine one pair estimate; the engine must surface a typed delta.
        first, second = jobs[0], jobs[1]
        accelerator = oracle.registry.names[0]
        truth = model.colocated_throughputs(first.job_type, second.job_type, accelerator)
        estimator.observe(
            first.job_type,
            second.job_type,
            accelerator,
            ColocatedThroughputs(first=truth.first * 0.5, second=truth.second * 0.5),
        )
        matrix = engine.matrix()
        deltas = engine.drain_deltas()
        refined = [d for d in deltas if isinstance(d, EstimateRefined)]
        assert refined, "engine did not emit an EstimateRefined delta"
        assert refined[0].job_types is not None
        assert set(refined[0].job_types) == {first.job_type, second.job_type}

        problem = PolicyProblem(jobs=active, throughputs=matrix, cluster_spec=cluster)
        session.apply(deltas)
        assert_session_equivalent(
            spec,
            scratch_policy,
            problem,
            session.solve(problem),
            RebuildSession(scratch_policy, problem).solve(problem),
        )

    def test_engine_emits_job_deltas(self, oracle):
        from repro.core.session import TypeCountChanged

        engine = AllocationEngine(oracle)
        trace = TraceGenerator(oracle=oracle).generate_static(num_jobs=3, seed=0)
        jobs = list(trace.jobs)
        engine.add_jobs(jobs)
        engine.remove_job(jobs[0].job_id)
        deltas = engine.drain_deltas()
        # Every arrival/exit emits its per-job delta followed by the group
        # histogram update.
        assert [type(d) for d in deltas] == [
            JobAdded,
            TypeCountChanged,
            JobAdded,
            TypeCountChanged,
            JobAdded,
            TypeCountChanged,
            JobRemoved,
            TypeCountChanged,
        ]
        assert deltas[0].job is jobs[0]
        assert deltas[-2].job_id == jobs[0].job_id
        assert all(d.count >= 0 for d in deltas if isinstance(d, TypeCountChanged))
        assert engine.drain_deltas() == []

    def test_default_session_is_rebuild(self, oracle, cluster):
        policy = make_policy("isolated")
        trace = TraceGenerator(oracle=oracle).generate_static(num_jobs=3, seed=0)
        jobs = {job.job_id: job for job in trace.jobs}
        from repro.core.throughput_matrix import build_throughput_matrix

        problem = PolicyProblem(
            jobs=jobs,
            throughputs=build_throughput_matrix(list(jobs.values()), oracle),
            cluster_spec=cluster,
        )
        session = policy.session(problem)
        assert isinstance(session, RebuildSession)
        allocation = session.solve()
        for combination in allocation.combinations:
            np.testing.assert_allclose(
                allocation.row(combination),
                policy.compute_allocation(problem).row(combination),
            )

    def test_solve_without_problem_reuses_last_snapshot(self, oracle, cluster):
        policy = make_policy("max_min_fairness")
        trace = TraceGenerator(oracle=oracle).generate_static(num_jobs=4, seed=2)
        jobs = {job.job_id: job for job in trace.jobs}
        from repro.core.throughput_matrix import build_throughput_matrix

        problem = PolicyProblem(
            jobs=jobs,
            throughputs=build_throughput_matrix(list(jobs.values()), oracle),
            cluster_spec=cluster,
        )
        session = policy.session(problem)
        first = session.solve()
        second = session.solve()
        for combination in first.combinations:
            np.testing.assert_allclose(
                first.row(combination), second.row(combination), atol=1e-9
            )


#: One instance of every ``PolicyDelta`` kind; a new kind needs an entry here.
_DELTA_SAMPLES = {
    JobAdded: JobAdded(Job(job_id=3, job_type="resnet18-bs64", total_steps=100.0)),
    JobRemoved: JobRemoved(job_id=3),
    EstimateRefined: EstimateRefined(job_types=("resnet18-bs64",)),
    TypeCountChanged: TypeCountChanged(key=("resnet18-bs64", 1), count=2),
}


@pytest.mark.parametrize("kind", typing.get_args(PolicyDelta), ids=lambda kind: kind.__name__)
def test_delta_summary_reflects_every_delta_kind(kind):
    """``summarize_deltas`` is the one dispatch over delta kinds: none may fall through."""
    assert summarize_deltas([_DELTA_SAMPLES[kind]]) != summarize_deltas([])

"""Property-based tests for the proportional-split recovery.

The split is the load-bearing piece of type aggregation: whatever the inner
LP hands back per group must be divided among members without creating or
destroying allocation mass.  Hypothesis pins the three properties the
expansion relies on: conservation (shares sum to the group total),
permutation invariance over member ids, and degeneration to the per-job
identity when every group is a singleton.

``TestGroupedLevelSplit`` lifts the same three properties to the aggregated
*water-filling* path, where the level loop runs over group representatives:
group totals are conserved by the equal split, the sorted level profile is
invariant under job-id relabelling, and an all-singleton grouping reproduces
the per-job level loop.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from reference_aggregation import proportional_split, weighted_member_split

from repro.cluster import ClusterSpec
from repro.core import AggregatedProblem, PolicyProblem, make_policy
from repro.core.throughput_matrix import build_throughput_matrix
from repro.workloads import Job, ThroughputOracle

from tests.equivalence import LEVEL_PROFILE_TOL, water_filling_level_profile

_totals = st.floats(
    min_value=0.0, max_value=64.0, allow_nan=False, allow_infinity=False
)
_weights = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)
_member_ids = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12, unique=True
)


class TestProportionalSplit:
    @given(total=_totals, weights=_weights)
    @settings(max_examples=200)
    def test_conserves_group_total(self, total, weights):
        shares = proportional_split(total, weights)
        assert len(shares) == len(weights)
        assert all(share >= 0.0 for share in shares)
        np.testing.assert_allclose(sum(shares), total, atol=1e-9 * max(1.0, total))

    @given(total=_totals, weights=_weights, seed=st.integers(0, 2**16))
    @settings(max_examples=200)
    def test_equivariant_under_member_permutation(self, total, weights, seed):
        # Shuffling the members shuffles the shares identically: no member's
        # share depends on its position (hence not on its job id either).
        order = np.random.default_rng(seed).permutation(len(weights))
        shares = proportional_split(total, weights)
        permuted = proportional_split(total, [weights[i] for i in order])
        np.testing.assert_allclose(permuted, [shares[i] for i in order], atol=1e-12)

    @given(total=_totals, weights=_weights)
    @settings(max_examples=100)
    def test_zero_mass_falls_back_to_equal_split(self, total, weights):
        zero = [0.0] * len(weights)
        shares = proportional_split(total, zero)
        np.testing.assert_allclose(shares, np.full(len(zero), total / len(zero)))


class TestWeightedMemberSplit:
    @given(total=_totals, member_ids=_member_ids, seed=st.integers(0, 2**16))
    @settings(max_examples=200)
    def test_job_id_permutation_invariance(self, total, member_ids, seed):
        # Equal-weight splits must not care which job ids name the members.
        shuffled = list(member_ids)
        np.random.default_rng(seed).shuffle(shuffled)
        original = weighted_member_split(total, member_ids, None)
        renamed = weighted_member_split(total, shuffled, None)
        assert set(original) == set(renamed)
        for job_id in member_ids:
            np.testing.assert_allclose(original[job_id], renamed[job_id], atol=1e-12)

    @given(total=_totals, member_ids=_member_ids)
    @settings(max_examples=200)
    def test_singleton_groups_degenerate_to_per_job(self, total, member_ids):
        # All groups of size 1: each member receives the group total verbatim,
        # i.e. aggregation is the identity on an all-distinct-type problem.
        for job_id in member_ids:
            shares = weighted_member_split(total, [job_id], None)
            assert shares == {job_id: total}

    @given(total=_totals, member_ids=_member_ids)
    @settings(max_examples=100)
    def test_weighted_shares_conserve_total(self, total, member_ids):
        weights = {job_id: float(1 + (job_id % 5)) for job_id in member_ids}
        shares = weighted_member_split(total, member_ids, weights)
        np.testing.assert_allclose(
            sum(shares.values()), total, atol=1e-9 * max(1.0, total)
        )


_ORACLE = ThroughputOracle()
_CLUSTER = ClusterSpec.from_counts(
    {"v100": 2, "p100": 2, "k80": 2}, registry=_ORACLE.registry
)
_JOB_TYPES = ("resnet50-bs16", "a3c-bs4", "lstm-bs10")

#: Per-type member counts: 1-3 types with 1-4 interchangeable jobs each.
_group_counts = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)


def _grouped_problem(counts, job_ids=None):
    """A per-job problem with ``counts[i]`` jobs of the i-th type."""
    total = sum(counts)
    ids = list(range(total)) if job_ids is None else list(job_ids)
    jobs = []
    position = 0
    for type_index, count in enumerate(counts):
        for _ in range(count):
            jobs.append(
                Job(
                    job_id=ids[position],
                    job_type=_JOB_TYPES[type_index],
                    total_steps=1000.0,
                )
            )
            position += 1
    matrix = build_throughput_matrix(jobs, _ORACLE)
    return PolicyProblem(
        jobs={job.job_id: job for job in jobs},
        throughputs=matrix,
        cluster_spec=_CLUSTER,
    )


class TestGroupedLevelSplit:
    """The aggregated water-filling level loop + equal split, property-tested."""

    @given(counts=_group_counts)
    @settings(max_examples=10, deadline=None)
    def test_allocation_mass_conserved_per_group(self, counts):
        problem = _grouped_problem(counts)
        policy = make_policy("max_min_fairness_water_filling", aggregation="type")
        view = AggregatedProblem.build(problem, key=policy.aggregation_group_key)
        aggregated = make_policy("max_min_fairness_water_filling").compute_allocation(
            view.problem
        )
        expanded = view.expand(aggregated)
        expanded.validate(_CLUSTER)
        for key, members in view.groups.items():
            rep = view.representatives[key]
            totals = [expanded.job_total(member) for member in members]
            # Equal split inside the group, conserving the group total.
            np.testing.assert_allclose(
                totals, np.full(len(totals), totals[0]), atol=1e-9
            )
            np.testing.assert_allclose(
                sum(totals), aggregated.job_total(rep), atol=1e-6
            )

    @given(counts=_group_counts, seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_sorted_level_profile_invariant_under_job_id_relabelling(
        self, counts, seed
    ):
        total = sum(counts)
        relabelled = (np.random.default_rng(seed).permutation(total) * 7 + 3).tolist()
        policy = make_policy("max_min_fairness_water_filling", aggregation="type")
        profiles = []
        for ids in (None, relabelled):
            problem = _grouped_problem(counts, job_ids=ids)
            allocation = policy.session(problem).solve(problem)
            profiles.append(water_filling_level_profile(policy, problem, allocation))
        np.testing.assert_allclose(
            profiles[0], profiles[1], atol=LEVEL_PROFILE_TOL, rtol=LEVEL_PROFILE_TOL
        )

    @given(num_types=st.integers(min_value=1, max_value=3))
    @settings(max_examples=6, deadline=None)
    def test_singleton_groups_degenerate_to_per_job_path(self, num_types):
        problem = _grouped_problem([1] * num_types)
        aggregated_policy = make_policy(
            "max_min_fairness_water_filling", aggregation="type"
        )
        per_job_policy = make_policy("max_min_fairness_water_filling")
        aggregated = aggregated_policy.session(problem).solve(problem)
        per_job = per_job_policy.compute_allocation(problem)
        # All-singleton groups make aggregation the identity: both paths walk
        # the same deterministic level trajectory over identical programs.
        for combination in set(aggregated.combinations) | set(per_job.combinations):
            aggregated_row = (
                aggregated.row(combination)
                if aggregated.has_row(combination)
                else np.zeros(len(_ORACLE.registry))
            )
            per_job_row = (
                per_job.row(combination)
                if per_job.has_row(combination)
                else np.zeros(len(_ORACLE.registry))
            )
            np.testing.assert_allclose(aggregated_row, per_job_row, atol=1e-6)

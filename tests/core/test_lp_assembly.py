"""LP assembly: the validity scaffold against Section 3.1, and vertices moved by warm starts.

:class:`~repro.core.policy.AllocationVariables` emits the decision variables
and validity constraints (2) and (3) as ndarray blocks.  These tests check
that program against a small dense construction written directly from the
paper — fresh, after ``update_to`` churn, and for a type-aggregated problem —
and hold the allocations every space-sharing registry policy computes over a
churn sequence to the recording made before the basis survived row edits, by
objective (see ``churn_fingerprint_scenarios``; today's vertices are pinned in
the outcome corpus, ``tests/outcomes.py``).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from churn_fingerprint_scenarios import (
    CALL_COUNT_CASES,
    SS_POLICY_SPECS,
    UNIQUE_OPTIMUM_SPECS,
    allocation_fingerprint,
    allocation_from_fingerprint,
    churn_problems,
    policy_objective,
    scalar_requirements,
    session_solves,
)

from repro.cluster import ClusterSpec
from repro.core import AggregatedProblem, make_policy
from repro.core.effective_throughput import effective_throughputs
from repro.core.policy import AllocationVariables
from repro.core.problem import PolicyProblem
from repro.core.session import ThroughputRequirementSession
from repro.core.throughput_matrix import build_throughput_matrix
from repro.solver import lp
from repro.solver.lp import LinearProgram
from repro.workloads import Job, ThroughputOracle, TraceGenerator, TraceGeneratorConfig

from tests.equivalence import policy_objective_value
from tests.live_model import assert_live_model_is_the_program
from tests.outcomes import mismatches

#: Allocations recorded before the basis survived row edits; never re-recorded.
RECORDED_COLD = Path(__file__).parent / "data" / "churn_fingerprints_cold.json"


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})


def _section_3_1_scaffold(problem, matrix, variables, num_variables):
    """Dense ``(A, row upper bounds, variable upper bounds)`` of constraints (2)/(3).

    Written from the paper, one scalar at a time: a variable ``X[c, a]`` per
    matrix row ``c`` and accelerator type ``a``, usable only where some job
    of ``c`` runs on ``a``; (2) each job's total time across the rows
    containing it is at most 1 (its group size when type-aggregated, a
    ``(j, j)`` row consuming two members); (3) per type, the workers the
    allocation occupies — each row weighted by its widest job — fit the
    cluster.  Columns not owned by a live variable stay zero and fixed.
    """
    names = matrix.registry.names
    counts = problem.group_counts or {}
    column = {
        (combination, a): variables.variable(combination, a).index
        for combination in matrix.combinations
        for a in range(len(names))
    }
    upper = np.zeros(num_variables)
    for combination in matrix.combinations:
        throughputs = matrix.row(combination)
        cap = min(counts.get(job_id, 1) for job_id in combination)
        for a in range(len(names)):
            if (throughputs[:, a] > 0).any():
                upper[column[combination, a]] = cap
    rows, bounds = [], []
    for job_id in matrix.job_ids:
        row = np.zeros(num_variables)
        for combination in matrix.combinations:
            for a in range(len(names)):
                row[column[combination, a]] += combination.count(job_id)
        rows.append(row)
        bounds.append(counts.get(job_id, 1))
    capacity = problem.cluster_spec.counts_vector()
    for a in range(len(names)):
        row = np.zeros(num_variables)
        for combination in matrix.combinations:
            row[column[combination, a]] = max(
                problem.scale_factor(job_id) for job_id in combination
            )
        rows.append(row)
        bounds.append(capacity[a])
    return np.array(rows), np.array(bounds, dtype=float), upper


def _assert_matches_scaffold(program, problem, matrix, variables):
    num_variables = program.num_variables()
    expected, expected_upper, variable_upper = _section_3_1_scaffold(
        problem, matrix, variables, num_variables
    )
    assembled, lower, upper = program._assembled()
    dense = assembled.toarray()
    assert dense.shape == expected.shape
    # Row order is an implementation detail; the row *set* is the claim.
    order = np.lexsort(np.column_stack([dense, upper]).T)
    expected_order = np.lexsort(np.column_stack([expected, expected_upper]).T)
    assert np.array_equal(dense[order], expected[expected_order])
    assert np.array_equal(upper[order], expected_upper[expected_order])
    assert np.all(np.isneginf(lower))
    assert np.array_equal(np.asarray(program._lower), np.zeros(num_variables))
    assert np.array_equal(np.asarray(program._upper), variable_upper)


class TestValidityScaffold:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fresh_build(self, oracle, cluster, seed):
        generator = TraceGenerator(oracle, TraceGeneratorConfig(multi_worker=seed == 2))
        jobs = list(generator.generate_static(num_jobs=12, seed=seed).jobs)
        matrix = build_throughput_matrix(jobs, oracle, space_sharing=True)
        problem = PolicyProblem(
            jobs={job.job_id: job for job in jobs}, throughputs=matrix, cluster_spec=cluster
        )
        program = LinearProgram()
        variables = AllocationVariables(problem, matrix, program)
        _assert_matches_scaffold(program, problem, matrix, variables)

    def test_after_insert_remove_churn(self, oracle):
        steps = churn_problems(oracle)
        first = steps[0][0]
        program = LinearProgram()
        variables = AllocationVariables(first, first.throughputs, program)
        for problem, _deltas in steps[1:]:
            variables.update_to(problem, problem.throughputs)
            _assert_matches_scaffold(program, problem, problem.throughputs, variables)
        # Released columns are recycled before the program grows.
        most_rows = max(problem.throughputs.num_rows() for problem, _deltas in steps)
        assert program.num_variables() == 3 * most_rows

    def test_aggregated_same_group_pair_row_counts_twice(self, oracle, cluster):
        jobs = [
            Job(job_id=0, job_type="a3c-bs4", total_steps=10.0),
            Job(job_id=1, job_type="a3c-bs4", total_steps=20.0),
            Job(job_id=2, job_type="a3c-bs4", total_steps=30.0),
            Job(job_id=3, job_type="resnet18-bs64", total_steps=40.0),
        ]
        base = PolicyProblem(
            jobs={job.job_id: job for job in jobs},
            throughputs=build_throughput_matrix(jobs, oracle, space_sharing=True),
            cluster_spec=cluster,
        )
        problem = AggregatedProblem.build(base).problem
        matrix = problem.throughputs
        assert (0, 0) in matrix.combinations
        program = LinearProgram()
        variables = AllocationVariables(problem, matrix, program)
        _assert_matches_scaffold(program, problem, matrix, variables)
        # The claim spelled out: job 0's row weighs its (0, 0) pair twice and
        # is bounded by the group size.
        handle = variables._job_constraints[0]
        row = program._constraints[handle]
        pair_columns = [variables.variable((0, 0), column).index for column in range(3)]
        assert row.values[np.isin(row.indices, pair_columns)].tolist() == [2.0] * 3
        assert program._row_upper_buf[row.slot] == 3.0


class TestRecordedChurnAllocations:
    @pytest.mark.parametrize(("policy_spec", "aggregation"), CALL_COUNT_CASES)
    def test_churn_live_models_hold_their_programs(
        self, monkeypatch, oracle, policy_spec, aggregation
    ):
        """After every pure-LP solve of the churn sequence HiGHS holds exactly the program.

        The synthetic edit sequences of ``tests/solver/test_lp_warm_start.py``
        check the same on random edits; this checks it on the edits the
        policy sessions really make, column edits and rewrites mixed.
        """
        solve, checked = lp._HighsBackend.solve, []

        def checking(backend, program):
            solution = solve(backend, program)
            assert_live_model_is_the_program(program)
            checked.append(program.name)
            return solution

        monkeypatch.setattr(lp._HighsBackend, "solve", checking)
        steps = churn_problems(oracle)
        for _solved in session_solves(policy_spec, steps, aggregation):
            pass
        assert len(checked) >= len(steps)

    @pytest.mark.parametrize("policy_spec", SS_POLICY_SPECS)
    def test_vertices_moved_since_the_cold_recording_are_ties(self, oracle, policy_spec):
        """Against the pre-warm-start recording: same objective, maybe another vertex.

        Per step the policy objective of the recorded allocation equals
        today's to 1e-9; specs with a unique optimum have not moved at all.
        Makespan and finish-time fairness were recorded when their scalar was
        bisected to within 1 % *above* the optimum and are certified today:
        the scalar the recorded allocation achieves lies between today's lower
        bound and 1 % above today's upper bound (today's is never worse), and
        today's witness meets the requirements of today's scalar.
        """
        steps = churn_problems(oracle)
        recorded = json.loads(RECORDED_COLD.read_text(encoding="utf-8"))[policy_spec]
        assert len(steps) == len(recorded)
        policy = make_policy(policy_spec)
        solves = session_solves(policy_spec, steps)
        for step, ((problem, _deltas), (session, allocation), rows) in enumerate(
            zip(steps, solves, recorded, strict=True)
        ):
            label = f"{policy_spec} step {step}"
            if policy_spec in UNIQUE_OPTIMUM_SPECS:
                assert not mismatches(allocation_fingerprint(allocation), rows), label
                continue
            before = allocation_from_fingerprint(problem, rows)
            before.validate(problem.cluster_spec)
            if not isinstance(session, ThroughputRequirementSession):
                assert policy_objective(policy_spec, problem, before) == pytest.approx(
                    policy_objective(policy_spec, problem, allocation), rel=1e-9
                ), label
                continue
            lower, upper = session.last_bracket
            assert upper - lower <= policy.relative_tolerance * upper, label
            then = policy_objective_value(policy_spec, policy, problem, before)
            assert lower * (1 - 1e-6) <= then <= upper * (1 + 1e-2), label
            required = scalar_requirements(policy_spec, problem, upper)
            throughputs = effective_throughputs(policy.effective_matrix(problem), allocation)
            for job_id, minimum in required.items():
                assert throughputs[job_id] >= minimum * (1 - 1e-6), f"{label} job {job_id}"

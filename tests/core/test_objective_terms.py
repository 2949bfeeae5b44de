"""Objective terms as arrays: what the policies hand ``LinearProgram``.

The weighted-throughput policies (FIFO, shortest job first, total
throughput) maximise ``sum_m w_m * throughput(m, X)``, read off
:meth:`AllocationVariables.throughput_sum_terms`; min cost divides total
throughput by :meth:`AllocationVariables.cost_terms`.  These pin both against
sums written out from the per-job terms, on a space-sharing problem (pair
rows share columns between two jobs) and on a type-aggregated one (a
same-group pair row repeats a job's columns).
"""

import math

import numpy as np
import pytest
from churn_fingerprint_scenarios import churn_problems

from repro.cluster import ClusterSpec
from repro.core import AggregatedProblem
from repro.core.policy import AllocationVariables
from repro.core.problem import PolicyProblem
from repro.core.throughput_matrix import build_throughput_matrix
from repro.exceptions import UnknownJobError
from repro.solver import summed_terms
from repro.solver.lp import LinearProgram
from repro.workloads import Job, ThroughputOracle


@pytest.fixture(scope="module")
def space_sharing():
    """A 16-job ``+ss`` problem and its variables."""
    problem, _deltas = churn_problems(ThroughputOracle())[0]
    return problem, AllocationVariables(problem, problem.throughputs, LinearProgram())


@pytest.fixture(scope="module")
def aggregated():
    """A type-aggregated ``+ss`` problem with a same-group pair row, and its variables."""
    oracle = ThroughputOracle()
    jobs = [
        Job(job_id=0, job_type="a3c-bs4", total_steps=10.0),
        Job(job_id=1, job_type="a3c-bs4", total_steps=20.0),
        Job(job_id=2, job_type="resnet18-bs64", total_steps=40.0),
    ]
    base = PolicyProblem(
        jobs={job.job_id: job for job in jobs},
        throughputs=build_throughput_matrix(jobs, oracle, space_sharing=True),
        cluster_spec=ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2}),
    )
    problem = AggregatedProblem.build(base).problem
    assert (0, 0) in problem.throughputs.combinations
    return problem, AllocationVariables(problem, problem.throughputs, LinearProgram())


def _dense(num_columns, indices, values):
    dense = np.zeros(num_columns)
    np.add.at(dense, indices, values)
    return dense


def _weights(problem):
    return [(job_id, 1.0 + 0.25 * position) for position, job_id in enumerate(problem.job_ids)]


@pytest.mark.parametrize("case", ["space_sharing", "aggregated"])
def test_the_sum_is_the_weighted_sum_of_the_job_terms(request, case):
    problem, variables = request.getfixturevalue(case)
    width = variables._var_matrix.size
    expected = np.zeros(width)
    for job_id, weight in _weights(problem):
        expected += weight * _dense(width, *variables.effective_throughput_terms(job_id))
    indices, values = variables.throughput_sum_terms(_weights(problem))
    assert _dense(width, indices, values) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("case", ["space_sharing", "aggregated"])
def test_the_sum_is_in_canonical_form(request, case):
    problem, variables = request.getfixturevalue(case)
    indices, values = variables.throughput_sum_terms(_weights(problem))
    assert len(set(indices.tolist())) == len(indices)
    assert np.all(values != 0.0)
    again = summed_terms(indices, values)
    assert again[0] is indices and again[1] is values


def test_a_job_repeated_in_its_own_pair_row_is_summed_before_it_is_weighted(aggregated):
    """The same-group row's two memberships weigh its columns twice, then by the weight."""
    problem, variables = aggregated
    cols, vals = variables.effective_throughput_terms(0)
    assert len(set(cols.tolist())) < len(cols)  # the (0, 0) row's columns, twice
    own_cols, own_vals = summed_terms(cols, vals)
    indices, values = variables.throughput_sum_terms([(0, 3.0)])
    assert indices.tolist() == own_cols.tolist()
    assert values.tolist() == (own_vals * 3.0).tolist()


def test_a_zero_weight_contributes_nothing(space_sharing):
    problem, variables = space_sharing
    first, rest = problem.job_ids[0], problem.job_ids[1:]
    with_zero = variables.throughput_sum_terms([(first, 0.0), *((j, 1.0) for j in rest)])
    without = variables.throughput_sum_terms([(j, 1.0) for j in rest])
    width = variables._var_matrix.size
    assert np.array_equal(_dense(width, *with_zero), _dense(width, *without))


def test_an_unknown_job_raises(space_sharing):
    problem, variables = space_sharing
    with pytest.raises(UnknownJobError):
        variables.throughput_sum_terms([(problem.job_ids[0], 1.0), (10_000, 1.0)])


@pytest.mark.parametrize("case", ["space_sharing", "aggregated"])
def test_cost_charges_each_row_once_per_accelerator_by_its_widest_job(request, case):
    problem, variables = request.getfixturevalue(case)
    indices, values = variables.cost_terms()
    costs = np.asarray(problem.throughputs.registry.costs_per_hour(), dtype=float)
    var_matrix = variables._var_matrix
    assert indices.tolist() == var_matrix.ravel().tolist()
    for row, combination in enumerate(problem.throughputs.combinations):
        scale = max(problem.scale_factor(job_id) for job_id in combination)
        start = row * len(costs)
        assert values[start : start + len(costs)].tolist() == (scale * costs).tolist()


def test_one_element_bounds_make_one_row_even_without_terms():
    program = LinearProgram()
    program.add_variable(upper=1.0)
    handles = program.add_constraints_from_arrays([], [], [], [-math.inf], [1.0])
    assert len(handles) == 1 and program.num_constraints() == 1
    assert program._constraints[int(handles[0])].indices.tolist() == []
    assert program.add_constraints_from_arrays([], [], [], np.empty(0), math.inf).tolist() == []

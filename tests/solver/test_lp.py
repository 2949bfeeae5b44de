"""Tests for the LP/MILP modeling layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InfeasibleError, SolverError
from repro.solver import LinearProgram, summed_terms
from tests.lp_rows import add_row, set_objective


class TestSummedTerms:
    """:func:`summed_terms`: the canonical form of a term list."""

    def test_clean_terms_come_back_as_they_are(self):
        indices, values = np.array([2, 0, 1]), np.array([2.0, 3.0, -1.0])
        summed = summed_terms(indices, values)
        assert summed[0] is indices and summed[1] is values

    def test_zeros_are_dropped(self):
        indices, values = summed_terms([0, 1, 2], [0.0, 3.0, 0.0])
        assert (indices.tolist(), values.tolist()) == ([1], [3.0])

    def test_duplicates_sum_at_their_first_occurrence(self):
        indices, values = summed_terms([3, 1, 3, 0, 1], [1.0, 2.0, 0.5, 4.0, -2.0])
        # Column 1 sums to zero and is dropped; 3 keeps its first place.
        assert (indices.tolist(), values.tolist()) == ([3, 0], [1.5, 4.0])

    def test_non_finite_value_raises(self):
        with pytest.raises(SolverError):
            summed_terms([0, 1], [1.0, math.inf])


class TestLinearProgram:
    def test_simple_maximization(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=4.0)
        y = lp.add_variable("y", upper=3.0)
        add_row(lp, {x.index: 1.0, y.index: 1.0}, upper=5.0)
        set_objective(lp, {x.index: 2.0, y.index: 1.0})
        solution = lp.solve()
        assert solution.objective_value == pytest.approx(9.0)
        assert solution.values[x.index] == pytest.approx(4.0)
        assert solution.values[y.index] == pytest.approx(1.0)

    def test_simple_minimization_with_ge(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        add_row(lp, {x.index: 3.0}, lower=6.0)
        set_objective(lp, {x.index: 1.0}, maximize=False)
        assert lp.solve().objective_value == pytest.approx(2.0)

    def test_equality_constraint(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        # An equality row is a row with equal bounds.
        lp.add_constraints_from_arrays([0, 0], [x.index, y.index], [1.0, 1.0], 10.0, 10.0)
        set_objective(lp, {x.index: 1.0, y.index: -1.0})
        solution = lp.solve()
        assert solution.values[x.index] + solution.values[y.index] == pytest.approx(10.0)

    def test_objective_constant_included(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        set_objective(lp, {x.index: 1.0}, constant=5.0)
        assert lp.solve().objective_value == pytest.approx(6.0)

    def test_infeasible_raises(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        add_row(lp, {x.index: 1.0}, lower=2.0)
        set_objective(lp, {x.index: 1.0}, maximize=False)
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_no_variables_raises(self):
        with pytest.raises(SolverError):
            LinearProgram().solve()

    def test_max_min_objective(self):
        """max min(x, y) with x + y <= 1 gives 0.5 each."""
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        add_row(lp, {x.index: 1.0, y.index: 1.0}, upper=1.0)
        # The epigraph: t <= x, t <= y, maximize t.
        t = lp.add_variable("t", lower=-math.inf)
        add_row(lp, {x.index: -1.0, t.index: 1.0}, upper=0.0)
        add_row(lp, {y.index: -1.0, t.index: 1.0}, upper=0.0)
        set_objective(lp, {t.index: 1.0})
        solution = lp.solve()
        assert solution.objective_value == pytest.approx(0.5, abs=1e-6)
        assert solution.values[x.index] == pytest.approx(0.5, abs=1e-6)

    def test_min_max_objective(self):
        """min max(x, y) with x + y >= 2 gives 1 each."""
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        add_row(lp, {x.index: 1.0, y.index: 1.0}, lower=2.0)
        # The epigraph spelled out: x <= t, y <= t, minimize t.
        t = lp.add_variable("t", lower=-math.inf)
        add_row(lp, {x.index: 1.0, t.index: -1.0}, upper=0.0)
        add_row(lp, {y.index: 1.0, t.index: -1.0}, upper=0.0)
        set_objective(lp, {t.index: 1.0}, maximize=False)
        assert lp.solve().objective_value == pytest.approx(1.0, abs=1e-6)

    def test_milp_integer_variable(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=10.0, integer=True)
        add_row(lp, {x.index: 1.0}, upper=3.7)
        set_objective(lp, {x.index: 1.0})
        solution = lp.solve()
        assert solution.values[x.index] == pytest.approx(3.0)

    def test_milp_knapsack(self):
        """0/1 knapsack with capacity 5: items (v, w) = (3,2), (4,3), (5,4)."""
        lp = LinearProgram()
        items = lp.add_variables_from_arrays(3, upper=1.0, integer=True)
        values = [3.0, 4.0, 5.0]
        weights = [2.0, 3.0, 4.0]
        lp.add_constraints_from_arrays([0, 0, 0], items, weights, -math.inf, 5.0)
        lp.set_objective_from_arrays(items, values, maximize=True)
        assert lp.solve().objective_value == pytest.approx(7.0)

    def test_num_constraints_counts_all(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        add_row(lp, {x.index: 1.0}, upper=1.0)
        add_row(lp, {x.index: 1.0}, lower=0.1)
        lp.add_constraints_from_arrays([0], [x.index], [1.0], 0.5, 0.5)
        assert lp.num_constraints() == 3

    def test_unbounded_reports_solver_error(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        set_objective(lp, {x.index: 1.0})
        with pytest.raises(SolverError):
            lp.solve()

    @given(
        capacity=st.floats(min_value=1.0, max_value=100.0),
        coefficients=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_max_min_never_exceeds_equal_split_bound(self, capacity, coefficients):
        """Property: max-min over c_i * x_i with sum(x) <= C is c_min-limited."""
        lp = LinearProgram()
        count = len(coefficients)
        variables = lp.add_variables_from_arrays(count)
        lp.add_constraints_from_arrays(
            np.zeros(count, dtype=np.int64), variables, np.ones(count), -math.inf, capacity
        )
        # The epigraph: t <= c_i * x_i for every i, maximize t.
        t = lp.add_variable("t", lower=-math.inf)
        lp.add_constraints_from_arrays(
            np.repeat(np.arange(count), 2),
            np.column_stack([variables, np.full(count, t.index)]).ravel(),
            np.column_stack([-np.array(coefficients), np.ones(count)]).ravel(),
            -math.inf,
            0.0,
        )
        set_objective(lp, {t.index: 1.0})
        solution = lp.solve()
        # The optimum equals capacity / sum(1/c_i): verify against closed form.
        expected = capacity / sum(1.0 / c for c in coefficients)
        assert solution.objective_value == pytest.approx(expected, rel=1e-4)

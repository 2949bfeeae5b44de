"""Tests for the LP/MILP modeling layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InfeasibleError, SolverError
from repro.solver import LinearExpression, LinearProgram


class TestLinearExpression:
    def test_variable_arithmetic(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        expression = x * 2.0 + y * 3.0 + 1.0
        assert expression.coefficients == {0: 2.0, 1: 3.0}
        assert expression.constant == 1.0

    def test_subtraction_and_scaling(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        expression = (x * 4.0 - 2.0) * 0.5
        assert expression.coefficients == {0: 2.0}
        assert expression.constant == -1.0

    def test_addition_merges_duplicates(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        expression = LinearExpression({x.index: 1.0}) + LinearExpression({x.index: 2.0}, 5.0)
        assert expression.coefficients == {0: 3.0}
        assert expression.constant == 5.0

    def test_value_evaluates_assignment(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        expression = x * 2.0 + y * (-1.0) + 0.5
        assert expression.value(np.array([3.0, 1.0])) == pytest.approx(5.5)


class TestLinearProgram:
    def test_simple_maximization(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=4.0)
        y = lp.add_variable("y", upper=3.0)
        lp.add_less_equal(x + y, 5.0)
        lp.maximize(x * 2.0 + y)
        solution = lp.solve()
        assert solution.objective_value == pytest.approx(9.0)
        assert solution.value_of(x) == pytest.approx(4.0)
        assert solution.value_of(y) == pytest.approx(1.0)

    def test_simple_minimization_with_ge(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_greater_equal(x * 3.0, 6.0)
        lp.set_objective(x, maximize=False)
        assert lp.solve().objective_value == pytest.approx(2.0)

    def test_equality_constraint(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        # An equality row is a row with equal bounds.
        lp.add_constraints_from_arrays([0, 0], [x.index, y.index], [1.0, 1.0], 10.0, 10.0)
        lp.maximize(x - y)
        solution = lp.solve()
        assert solution.value_of(x) + solution.value_of(y) == pytest.approx(10.0)

    def test_objective_constant_included(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        lp.maximize(x + 5.0)
        assert lp.solve().objective_value == pytest.approx(6.0)

    def test_infeasible_raises(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        lp.add_greater_equal(x, 2.0)
        lp.set_objective(x, maximize=False)
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
        lp.add_less_equal(x + y, 1.0)
        lp.add_max_min_objective([x * 1.0, y * 1.0])
        solution = lp.solve()
        assert solution.objective_value == pytest.approx(0.5, abs=1e-6)
        assert solution.value_of(x) == pytest.approx(0.5, abs=1e-6)

    def test_min_max_objective(self):
        """min max(x, y) with x + y >= 2 gives 1 each."""
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_greater_equal(x + y, 2.0)
        # The epigraph spelled out: x <= t, y <= t, minimize t.
        t = lp.add_variable("t", lower=-math.inf)
        lp.add_less_equal(x - t, 0.0)
        lp.add_less_equal(y - t, 0.0)
        lp.set_objective(t, maximize=False)
        assert lp.solve().objective_value == pytest.approx(1.0, abs=1e-6)

    def test_milp_integer_variable(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=10.0, integer=True)
        lp.add_less_equal(x * 1.0, 3.7)
        lp.maximize(x)
        solution = lp.solve()
        assert solution.value_of(x) == pytest.approx(3.0)

    def test_milp_knapsack(self):
        """0/1 knapsack with capacity 5: items (v, w) = (3,2), (4,3), (5,4)."""
        lp = LinearProgram()
        items = lp.add_variables(3, upper=1.0, integer=True)
        values = [3.0, 4.0, 5.0]
        weights = [2.0, 3.0, 4.0]
        lp.add_less_equal(
            LinearExpression({item.index: w for item, w in zip(items, weights)}), 5.0
        )
        lp.maximize(LinearExpression({item.index: v for item, v in zip(items, values)}))
        assert lp.solve().objective_value == pytest.approx(7.0)

    def test_num_constraints_counts_all(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_less_equal(x, 1.0)
        lp.add_greater_equal(x, 0.1)
        lp.add_constraints_from_arrays([0], [x.index], [1.0], 0.5, 0.5)
        assert lp.num_constraints() == 3

    def test_unbounded_reports_solver_error(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.maximize(x)
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
        variables = lp.add_variables(len(coefficients))
        lp.add_less_equal(LinearExpression({v.index: 1.0 for v in variables}), capacity)
        lp.add_max_min_objective([v * c for v, c in zip(variables, coefficients)])
        solution = lp.solve()
        # The optimum equals capacity / sum(1/c_i): verify against closed form.
        expected = capacity / sum(1.0 / c for c in coefficients)
        assert solution.objective_value == pytest.approx(expected, rel=1e-4)

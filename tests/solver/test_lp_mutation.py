"""Tests for the mutable LinearProgram surface (handles, tags, warm re-solves)."""

import math

import numpy as np
import pytest

from repro.exceptions import InfeasibleError, SolverError
from repro.solver import LinearProgram
from repro.solver.fractional import FractionalProgram
from tests.lp_rows import add_row, set_objective


def _toy_program():
    lp = LinearProgram()
    x = lp.add_variable("x", upper=4.0)
    y = lp.add_variable("y", upper=3.0)
    handle = add_row(lp, {x.index: 1.0, y.index: 1.0}, upper=5.0)
    set_objective(lp, {x.index: 2.0, y.index: 1.0})
    return lp, x, y, handle


class TestConstraintMutation:
    def test_remove_constraint_relaxes_program(self):
        lp, x, y, handle = _toy_program()
        assert lp.solve().objective_value == pytest.approx(9.0)
        lp.remove_constraints([handle])
        assert lp.solve().objective_value == pytest.approx(11.0)

    def test_set_constraint_bounds_changes_rhs_only(self):
        lp, x, y, handle = _toy_program()
        lp.solve()
        lp.set_constraint_bounds_from_arrays([handle], upper=6.0)
        assert lp.solve().objective_value == pytest.approx(10.0)
        lp.set_constraint_bounds_from_arrays([handle], upper=3.0)
        assert lp.solve().objective_value == pytest.approx(6.0 + 0.0)

    def test_add_and_remove_terms(self):
        lp, x, y, handle = _toy_program()
        z = lp.add_variable("z", upper=10.0)
        lp.add_terms_to_constraints_from_arrays([handle], [0], [z.index], [1.0])
        set_objective(lp, {x.index: 2.0, y.index: 1.0, z.index: 3.0})
        solution = lp.solve()
        # z dominates: z=5, x=4 (bounds), x+y+z <= 5 forces x... x not in bound
        assert solution.values[[x.index, y.index, z.index]].sum() <= 5.0 + 1e-9
        lp.remove_terms_from_constraints([handle], [z.index])
        solution = lp.solve()
        assert solution.values[z.index] == pytest.approx(10.0)

    def test_set_constraint_coefficients_replaces_row(self):
        lp, x, y, handle = _toy_program()
        lp.solve()
        lp.set_constraints_coefficients_from_arrays(
            [handle], [0, 0], [x.index, y.index], [2.0, 2.0]
        )
        solution = lp.solve()
        assert 2 * solution.values[x.index] + 2 * solution.values[y.index] <= 5.0 + 1e-9

    def test_unknown_handle_raises(self):
        lp, *_ = _toy_program()
        with pytest.raises(SolverError):
            lp.add_terms_to_constraints_from_arrays([9999], [0], [0], [1.0])

    def test_rhs_edit_matches_fresh_program(self):
        """Warm-started re-solve equals a cold solve of the edited program."""
        lp, x, y, handle = _toy_program()
        lp.solve()
        lp.set_constraint_bounds_from_arrays([handle], upper=4.5)
        warm = lp.solve()

        fresh = LinearProgram()
        fx = fresh.add_variable("x", upper=4.0)
        fy = fresh.add_variable("y", upper=3.0)
        add_row(fresh, {fx.index: 1.0, fy.index: 1.0}, upper=4.5)
        set_objective(fresh, {fx.index: 2.0, fy.index: 1.0})
        cold = fresh.solve()
        assert warm.objective_value == pytest.approx(cold.objective_value)
        assert warm.values[x.index] == pytest.approx(cold.values[fx.index])


class TestRowFormat:
    """Term-level edits on the stored ``(indices, values)`` arrays.

    Every edit entry point lands in the same array algebra; these pin its
    ordering rules (HiGHS sees a row's columns in stored order) and check
    the live model agrees.
    """

    @staticmethod
    def _row(lp, handle):
        constraint = lp._constraints[handle]
        return constraint.indices.tolist(), constraint.values.tolist()

    def test_overlapping_terms_sum_in_place(self):
        lp, x, y, handle = _toy_program()
        lp.solve()
        z = lp.add_variable("z", upper=10.0)
        lp.add_terms_to_constraints_from_arrays(
            [handle], [0, 0, 0], [y.index, z.index, x.index], [0.5, 2.0, 1.0]
        )
        # x and y keep their positions and accumulate; z is appended.
        assert self._row(lp, handle) == ([x.index, y.index, z.index], [2.0, 1.5, 2.0])
        set_objective(lp, {x.index: 2.0, y.index: 1.0, z.index: 3.0})
        warm = lp.solve()

        fresh = LinearProgram()
        fx = fresh.add_variable("x", upper=4.0)
        fy = fresh.add_variable("y", upper=3.0)
        fz = fresh.add_variable("z", upper=10.0)
        add_row(fresh, {fx.index: 2.0, fy.index: 1.5, fz.index: 2.0}, upper=5.0)
        set_objective(fresh, {fx.index: 2.0, fy.index: 1.0, fz.index: 3.0})
        assert warm.objective_value == pytest.approx(fresh.solve().objective_value)

    def test_terms_cancelling_to_zero_leave_the_row(self):
        lp, x, y, handle = _toy_program()
        lp.add_terms_to_constraints_from_arrays(
            [handle], np.zeros(1, dtype=np.int64), np.array([x.index]), np.array([-1.0])
        )
        assert self._row(lp, handle) == ([y.index], [1.0])
        assert lp.solve().objective_value == pytest.approx(11.0)

    def test_duplicate_array_terms_coalesce_before_summing(self):
        lp, x, y, handle = _toy_program()
        lp.add_terms_to_constraints_from_arrays(
            [handle], np.zeros(2, dtype=np.int64), np.array([y.index] * 2), np.array([0.25] * 2)
        )
        assert self._row(lp, handle) == ([x.index, y.index], [1.0, 1.5])

    def test_replace_coefficients_keeps_array_order(self):
        lp, x, y, handle = _toy_program()
        lp.solve()
        # Term order follows the arrays (y first), zeros are dropped.
        lp.set_constraints_coefficients_from_arrays(
            [handle], [0, 0], [y.index, x.index], [4.0, 0.0]
        )
        assert self._row(lp, handle) == ([y.index], [4.0])
        solution = lp.solve()
        assert solution.values[x.index] == pytest.approx(4.0)
        assert solution.values[y.index] == pytest.approx(1.25)
        with pytest.raises(SolverError):
            lp.set_constraints_coefficients_from_arrays([handle], [0], [x.index], [math.nan])

    def test_remove_then_re_add_column_moves_it_to_the_end(self):
        lp, x, y, handle = _toy_program()
        lp.solve()
        lp.remove_terms_from_constraints([handle], [x.index])
        assert self._row(lp, handle) == ([y.index], [1.0])
        assert lp.solve().objective_value == pytest.approx(11.0)
        lp.add_terms_to_constraints_from_arrays([handle], [0], [x.index], [1.0])
        assert self._row(lp, handle) == ([y.index, x.index], [1.0, 1.0])
        assert lp.solve().objective_value == pytest.approx(9.0)

    def test_fractional_rows_share_the_edit_algebra(self):
        fp = FractionalProgram()
        x = fp.add_variable("x", upper=1.0)
        y = fp.add_variable("y", upper=1.0)
        handle = add_row(fp, {x.index: 1.0, y.index: 1.0}, upper=1.5)
        fp.set_ratio_objective(
            ([x.index, y.index], [1.0, 1.0], 0.0), ([x.index, y.index], [1.0, 2.0], 0.1)
        )
        fp.solve()  # pass the live model, then edit through it
        fp.add_terms_to_constraints_from_arrays([handle], [0], [y.index], [1.0])
        fp.remove_terms_from_constraints([handle], [x.index])
        constraint = fp._constraints[handle]
        assert (constraint.indices.tolist(), constraint.values.tolist()) == ([y.index], [2.0])
        warm = fp.solve()

        fresh = FractionalProgram()
        fx = fresh.add_variable("x", upper=1.0)
        fy = fresh.add_variable("y", upper=1.0)
        add_row(fresh, {fy.index: 2.0}, upper=1.5)
        fresh.set_ratio_objective(
            ([fx.index, fy.index], [1.0, 1.0], 0.0), ([fx.index, fy.index], [1.0, 2.0], 0.1)
        )
        assert warm.objective_value == pytest.approx(fresh.solve().objective_value)


class TestVariableRecycling:
    def test_release_and_reuse_index(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        y = lp.add_variable("y", upper=1.0)
        lp.release_variables([y.index])
        z = lp.add_variable("z", upper=2.0)
        assert z.index == y.index
        assert lp.num_variables() == 2
        set_objective(lp, {x.index: 1.0, z.index: 1.0})
        assert lp.solve().objective_value == pytest.approx(3.0)

    def test_released_variable_fixed_to_zero(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=5.0)
        y = lp.add_variable("y", upper=5.0)
        set_objective(lp, {x.index: 1.0, y.index: 1.0})
        assert lp.solve().objective_value == pytest.approx(10.0)
        lp.release_variables([y.index])
        set_objective(lp, {x.index: 1.0})
        solution = lp.solve()
        assert solution.values[y.index] == pytest.approx(0.0)


class TestTagScopes:
    def test_clear_tag_removes_scoped_state(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=2.0)
        y = lp.add_variable("y", upper=2.0)
        add_row(lp, {x.index: 1.0, y.index: 1.0}, upper=3.0)
        for _ in range(5):
            lp.clear_tag("objective")
            lp.begin_tag("objective")
            # max t subject to t <= x and t <= y.
            epigraph = lp.add_variable("t", lower=-math.inf)
            add_row(lp, {x.index: -1.0, epigraph.index: 1.0}, upper=0.0)
            add_row(lp, {y.index: -1.0, epigraph.index: 1.0}, upper=0.0)
            set_objective(lp, {epigraph.index: 1.0})
            lp.end_tag()
            solution = lp.solve()
            assert solution.values[epigraph.index] == pytest.approx(1.5)
        # Epigraph variables were recycled, not accumulated.
        assert lp.num_variables() == 3
        assert lp.num_constraints() == 3  # shared row + two epigraph rows

    def test_nested_tag_raises(self):
        lp = LinearProgram()
        lp.begin_tag("a")
        with pytest.raises(SolverError):
            lp.begin_tag("b")

    def test_fractional_tag_scope(self):
        fp = FractionalProgram()
        x = fp.add_variable("x", upper=1.0)
        y = fp.add_variable("y", upper=1.0)
        fp.begin_tag("objective")
        add_row(fp, {x.index: 1.0}, lower=0.25)
        fp.end_tag()
        fp.set_ratio_objective(
            ([x.index, y.index], [1.0, 1.0], 0.0), ([x.index, y.index], [1.0, 2.0], 0.1)
        )
        first = fp.solve()
        assert first.values[x.index] >= 0.25 - 1e-9
        fp.clear_tag("objective")
        second = fp.solve()
        assert second.objective_value >= first.objective_value - 1e-9


class TestChurnEquivalence:
    def test_incremental_edits_match_fresh_build(self):
        """A long add/remove/edit sequence stays equivalent to a fresh program."""
        rng = np.random.default_rng(0)
        lp = LinearProgram()
        variables = [lp.add_variable(upper=1.0) for _ in range(6)]
        handles = {}
        state = {}
        for i in range(6):
            coefficients = {variables[j].index: 1.0 for j in range(6) if (i + j) % 2 == 0}
            handles[i] = add_row(lp, coefficients, upper=2.0)
            state[i] = (dict(coefficients), 2.0)
        objective = {v.index: float(i + 1) for i, v in enumerate(variables)}
        set_objective(lp, objective)

        for step in range(12):
            action = step % 3
            if action == 0:
                victim = rng.integers(0, 6)
                if int(victim) in handles:
                    lp.remove_constraints([handles.pop(int(victim))])
                    state.pop(int(victim))
            elif action == 1:
                key = 100 + step
                coefficients = {
                    variables[int(j)].index: float(rng.integers(1, 3))
                    for j in rng.choice(6, size=3, replace=False)
                }
                handles[key] = add_row(lp, coefficients, upper=2.5)
                state[key] = (dict(coefficients), 2.5)
            else:
                key = next(iter(handles))
                lp.set_constraint_bounds_from_arrays([handles[key]], upper=1.5)
                state[key] = (state[key][0], 1.5)

            fresh = LinearProgram()
            fresh_vars = [fresh.add_variable(upper=1.0) for _ in range(6)]
            for coefficients, rhs in state.values():
                add_row(fresh, coefficients, upper=rhs)
            set_objective(fresh, {v.index: float(i + 1) for i, v in enumerate(fresh_vars)})
            assert lp.solve().objective_value == pytest.approx(
                fresh.solve().objective_value, rel=1e-9
            )

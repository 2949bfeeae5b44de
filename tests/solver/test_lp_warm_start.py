"""The live HiGHS model keeps its basis across every kind of edit.

A :class:`~repro.solver.lp.LinearProgram` that has been solved once re-solves
from the basis the previous solve left, whatever was edited in between: rows
added, removed or rewritten, columns added, bounds moved.  The property test
drives random edit sequences against a freshly built twin of the same
program: equal optimum after every solve, and ``warm_started`` on every solve
that follows an optimal one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import LinearProgram

_EDITS = ("add_row", "remove_row", "rewrite_row", "add_column", "column_bound", "row_bound")
_coefficient = st.floats(-2.0, 3.0).map(lambda value: round(value, 2))


class _Twin:
    """A live program plus the plain data to rebuild it from scratch."""

    def __init__(self, uppers, costs):
        self.live = LinearProgram(name="live")
        self.columns = [self.live.add_variable(upper=upper).index for upper in uppers]
        self.uppers = list(uppers)
        self.costs = list(costs)
        self.rows = {}  # handle -> ({position: coefficient}, upper bound)
        self._set_objective(self.live, self.columns)

    def _set_objective(self, program, columns):
        program.maximize({column: cost for column, cost in zip(columns, self.costs)})

    def fresh(self):
        program = LinearProgram(name="fresh")
        columns = [program.add_variable(upper=upper).index for upper in self.uppers]
        for coefficients, upper in self.rows.values():
            program.add_less_equal(
                {columns[position]: value for position, value in coefficients.items()}, upper
            )
        self._set_objective(program, columns)
        return program

    def _live_terms(self, coefficients):
        return {self.columns[position]: value for position, value in coefficients.items()}

    def apply(self, edit, data):
        """One edit on the live program, mirrored in the plain data."""
        positions = st.integers(0, len(self.columns) - 1)
        row = st.dictionaries(positions, _coefficient, min_size=1, max_size=len(self.columns))
        if edit == "add_column":
            self.uppers.append(data.draw(st.sampled_from([0.5, 1.0, 2.0])))
            self.costs.append(data.draw(st.sampled_from([0.5, 1.0, 3.0])))
            self.columns.append(self.live.add_variable(upper=self.uppers[-1]).index)
            self._set_objective(self.live, self.columns)
        elif edit == "column_bound":
            position = data.draw(positions)
            self.uppers[position] = data.draw(st.sampled_from([0.0, 0.5, 1.5]))
            self.live.set_variable_bounds(self.columns[position], 0.0, self.uppers[position])
        elif edit == "add_row" or not self.rows:
            # Right-hand sides stay non-negative: x = 0 is always feasible.
            coefficients, upper = data.draw(row), data.draw(st.sampled_from([0.0, 1.0, 2.5]))
            self.rows[self.live.add_less_equal(self._live_terms(coefficients), upper)] = (
                coefficients,
                upper,
            )
        else:
            handle = data.draw(st.sampled_from(sorted(self.rows)))
            if edit == "remove_row":
                self.live.remove_constraint(handle)
                del self.rows[handle]
            elif edit == "rewrite_row":
                coefficients = data.draw(row)
                self.live.set_constraint_coefficients(handle, self._live_terms(coefficients))
                self.rows[handle] = (coefficients, self.rows[handle][1])
            else:
                upper = data.draw(st.sampled_from([0.0, 0.5, 4.0]))
                self.live.set_constraint_bounds(handle, upper=upper)
                self.rows[handle] = (self.rows[handle][0], upper)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_edit_sequences_keep_the_optimum_and_the_basis(data):
    twin = _Twin(uppers=[1.0, 2.0, 1.0, 0.5], costs=[1.0, 2.0, 0.5, 3.0])
    for _ in range(3):
        twin.apply("add_row", data)
    assert not twin.live.solve().warm_started
    for batch in data.draw(
        st.lists(st.lists(st.sampled_from(_EDITS), min_size=1, max_size=4), min_size=1, max_size=8)
    ):
        for edit in batch:
            twin.apply(edit, data)
        solution = twin.live.solve()
        # Bounded columns and a feasible origin: every solve is optimal, so
        # every later one must find the basis the previous one left.
        assert solution.warm_started
        assert solution.objective_value == pytest.approx(
            twin.fresh().solve().objective_value, rel=1e-9, abs=1e-9
        )
    assert twin.live.basis_rejections == 0


def test_counters_of_a_cold_and_a_warm_solve():
    lp = LinearProgram()
    x = lp.add_variable("x", upper=4.0)
    y = lp.add_variable("y", upper=3.0)
    lp.add_less_equal(x + y, 5.0)
    lp.maximize(x * 2.0 + y)
    cold = lp.solve()
    assert not cold.warm_started
    again = lp.solve()
    assert (again.warm_started, again.simplex_iterations) == (True, 0)
    np.testing.assert_array_equal(again.values, cold.values)

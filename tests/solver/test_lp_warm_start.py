"""The live HiGHS model keeps its basis across every kind of edit.

A :class:`~repro.solver.lp.LinearProgram` that has been solved once re-solves
from the basis the previous solve left, whatever was edited in between: rows
added, removed (several at once) or rewritten, terms added to or dropped from
a row, one column's coefficients set across rows, columns added or released
and recycled, bounds moved or swept back unchanged.  The property test drives
random edit sequences against a freshly built twin of the same program: equal
optimum after every solve, ``warm_started`` on every solve that follows an
optimal one, no (row, column) pushed twice by one sync's ``changeCoeff``, and
a live model that holds exactly the program
(:func:`tests.live_model.assert_live_model_is_the_program`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import LinearProgram

from tests.live_model import assert_live_model_is_the_program
from tests.lp_rows import add_row, set_objective

_EDITS = (
    "add_row",
    "remove_row",
    "remove_rows",
    "rewrite_row",
    "add_terms",
    "remove_terms",
    "column_edit",
    "add_column",
    "recycle_column",
    "column_bound",
    "row_bound",
    "bound_sweep",
)
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
        set_objective(program, dict(zip(columns, self.costs)))

    def fresh(self):
        program = LinearProgram(name="fresh")
        columns = [program.add_variable(upper=upper).index for upper in self.uppers]
        for coefficients, upper in self.rows.values():
            add_row(
                program,
                {columns[position]: value for position, value in coefficients.items()},
                upper=upper,
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
        elif edit == "recycle_column":
            # Scrub the column from every row, release it, and hand its index
            # straight back to a new variable at the same position.
            position = data.draw(positions)
            column = self.columns[position]
            for handle, (coefficients, _upper) in self.rows.items():
                if coefficients.pop(position, None) is not None:
                    self.live.remove_terms_from_constraints([handle], [column])
            self.live.release_variables([column])
            self.uppers[position] = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
            self.costs[position] = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
            self.columns[position] = self.live.add_variable(upper=self.uppers[position]).index
            assert self.columns[position] == column
            self._set_objective(self.live, self.columns)
        elif edit == "column_bound":
            position = data.draw(positions)
            self.uppers[position] = data.draw(st.sampled_from([0.0, 0.5, 1.5]))
            self.live.set_variable_bounds_from_arrays(
                [self.columns[position]], 0.0, self.uppers[position]
            )
        elif edit == "bound_sweep" and self.rows:
            # Every row's bounds written back, a few of them moved.
            handles = sorted(self.rows)
            uppers = [self.rows[handle][1] for handle in handles]
            for index in data.draw(st.lists(st.integers(0, len(handles) - 1), max_size=2)):
                uppers[index] = data.draw(st.sampled_from([0.0, 0.5, 4.0]))
            self.live.set_constraint_bounds_from_arrays(handles, upper=uppers)
            for handle, upper in zip(handles, uppers):
                self.rows[handle] = (self.rows[handle][0], upper)
        elif edit in ("add_row", "bound_sweep") or not self.rows:
            # Right-hand sides stay non-negative: x = 0 is always feasible.
            coefficients, upper = data.draw(row), data.draw(st.sampled_from([0.0, 1.0, 2.5]))
            self.rows[add_row(self.live, self._live_terms(coefficients), upper=upper)] = (
                coefficients,
                upper,
            )
        elif edit == "remove_rows":
            for handle in data.draw(st.lists(st.sampled_from(sorted(self.rows)), unique=True)):
                self.live.remove_constraints([handle])
                del self.rows[handle]
        elif edit == "column_edit":
            # One column written across 1-3 rows; a zero drops the term.
            position = data.draw(positions)
            handles = data.draw(
                st.lists(st.sampled_from(sorted(self.rows)), min_size=1, max_size=3, unique=True)
            )
            values = [data.draw(_coefficient) for _ in handles]
            self.live.set_column_coefficients_from_arrays(self.columns[position], handles, values)
            for handle, value in zip(handles, values):
                coefficients = self.rows[handle][0]
                coefficients[position] = value
                if not value:
                    del coefficients[position]
        else:
            handle = data.draw(st.sampled_from(sorted(self.rows)))
            coefficients, upper = self.rows[handle]
            if edit == "remove_row":
                self.live.remove_constraints([handle])
                del self.rows[handle]
            elif edit == "rewrite_row":
                coefficients = data.draw(row)
                terms = self._live_terms(coefficients)
                rows = np.zeros(len(terms), dtype=np.int64)
                self.live.set_constraints_coefficients_from_arrays(
                    [handle], rows, list(terms), list(terms.values())
                )
                self.rows[handle] = (coefficients, upper)
            elif edit == "add_terms":
                added = data.draw(row)
                self.live.add_terms_to_constraints_from_arrays(
                    [handle],
                    np.zeros(len(added), dtype=np.int64),
                    np.array([self.columns[position] for position in added]),
                    np.array(list(added.values())),
                )
                for position, value in added.items():
                    coefficients[position] = coefficients.get(position, 0.0) + value
            elif edit == "remove_terms":
                dropped = data.draw(st.lists(positions, unique=True))
                self.live.remove_terms_from_constraints(
                    [handle], [self.columns[position] for position in dropped]
                )
                for position in dropped:
                    coefficients.pop(position, None)
            else:
                upper = data.draw(st.sampled_from([0.0, 0.5, 4.0]))
                self.live.set_constraint_bounds_from_arrays([handle], upper=upper)
                self.rows[handle] = (coefficients, upper)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_edit_sequences_keep_the_optimum_and_the_basis(data):
    twin = _Twin(uppers=[1.0, 2.0, 1.0, 0.5], costs=[1.0, 2.0, 0.5, 3.0])
    for _ in range(3):
        twin.apply("add_row", data)
    assert not twin.live.solve().warm_started
    assert_live_model_is_the_program(twin.live)
    for batch in data.draw(
        st.lists(st.lists(st.sampled_from(_EDITS), min_size=1, max_size=4), min_size=1, max_size=8)
    ):
        for edit in batch:
            twin.apply(edit, data)
        journal = twin.live._backend._journal
        synced = len(journal)
        solution = twin.live.solve()
        # One sync pushes each coefficient at most once, whatever edits it took.
        pushed = [
            pair
            for entry in journal[synced:]
            if entry[0] == "changeCoeff"
            for pair in zip(entry[1].tolist(), entry[2].tolist())
        ]
        assert len(pushed) == len(set(pushed))
        # Bounded columns and a feasible origin: every solve is optimal, so
        # every later one must find the basis the previous one left.
        assert solution.warm_started
        assert_live_model_is_the_program(twin.live)
        assert solution.objective_value == pytest.approx(
            twin.fresh().solve().objective_value, rel=1e-9, abs=1e-9
        )
    assert twin.live.basis_rejections == 0


def test_counters_of_a_cold_and_a_warm_solve():
    lp = LinearProgram()
    x = lp.add_variable("x", upper=4.0)
    y = lp.add_variable("y", upper=3.0)
    add_row(lp, {x.index: 1.0, y.index: 1.0}, upper=5.0)
    set_objective(lp, {x.index: 2.0, y.index: 1.0})
    cold = lp.solve()
    assert not cold.warm_started
    again = lp.solve()
    assert (again.warm_started, again.simplex_iterations) == (True, 0)
    np.testing.assert_array_equal(again.values, cold.values)

"""``set_column_coefficients_from_arrays``: one column, many rows, logged as row rewrites.

The edit must leave the stored rows in the one row format (unique columns, no
zeros, other terms untouched), reach the live model as one ``changeCoeff`` per
coefficient that really moved — rows stay in place, the basis survives — and
compose with whole-row rewrites made before or after it in the same interval:
rows reach HiGHS in the order they were first edited, each (row, column) at
most once per solve.
Row bounds reach the live model the same way, by difference: one
``changeRowBounds`` per row that really moved, while the simplex choice still
counts every bound written.
"""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.solver import LinearProgram
from repro.solver.lp import _DUAL_SIMPLEX, _PRIMAL_SIMPLEX
from tests.lp_rows import add_row, set_objective


def _scaling_program(requirements=(1.0, 2.0, 4.0)):
    """max y  s.t.  x_k - r_k * y >= 0,  x_k <= 1,  sum x <= 2  — a tiny max-min LP."""
    lp = LinearProgram(name="column-edit")
    xs = [lp.add_variable(f"x{k}", upper=1.0) for k in range(len(requirements))]
    y = lp.add_variable("y")
    rows = [add_row(lp, {x.index: 1.0}, lower=0.0) for x in xs]
    total = add_row(lp, {x.index: 1.0 for x in xs}, upper=2.0)
    set_objective(lp, {y.index: 1.0})
    lp.set_column_coefficients_from_arrays(y, rows, -np.asarray(requirements))
    return lp, xs, y, rows, total


def _fresh_objective(requirements):
    return _scaling_program(requirements)[0].solve().objective_value


def _stored(lp, handle):
    row = lp._constraints[handle]
    return dict(zip(row.indices.tolist(), row.values.tolist()))


class _Recorder:
    def __init__(self, real, *methods):
        self._real = real
        self.calls = {method: [] for method in methods}

    def __getattr__(self, name):
        attribute = getattr(self._real, name)
        if name not in self.calls:
            return attribute

        def recorded(*args):
            self.calls[name].append(args)
            return attribute(*args)

        return recorded


def test_stored_rows_keep_the_row_format():
    lp, xs, y, rows, _total = _scaling_program()
    # Appended behind the row's own term, which is untouched.
    assert _stored(lp, rows[1]) == {xs[1].index: 1.0, y.index: -2.0}
    assert lp._constraints[rows[1]].indices.tolist() == [xs[1].index, y.index]
    # Replaced in place; a zero drops the term; an absent column stays absent.
    lp.set_column_coefficients_from_arrays(y, rows, [-3.0, 0.0, -4.0])
    assert _stored(lp, rows[0]) == {xs[0].index: 1.0, y.index: -3.0}
    assert _stored(lp, rows[1]) == {xs[1].index: 1.0}
    lp.set_column_coefficients_from_arrays(y, [rows[1]], [0.0])
    assert _stored(lp, rows[1]) == {xs[1].index: 1.0}
    # A column that is not the row's last term is found where it is.
    lp.set_column_coefficients_from_arrays(xs[0], [rows[0]], [5.0])
    assert lp._constraints[rows[0]].indices.tolist() == [xs[0].index, y.index]
    assert _stored(lp, rows[0]) == {xs[0].index: 5.0, y.index: -3.0}
    with pytest.raises(SolverError, match="unknown constraint handle"):
        lp.set_column_coefficients_from_arrays(y, [10_000], [1.0])


def test_arrays_handed_in_are_never_mutated():
    """Edits replace a row's arrays: slices shared with a columnar block stay as they were."""
    lp = LinearProgram()
    columns = lp.add_variables_from_arrays(3)
    cols = np.array([0, 1, 1, 2], dtype=np.int64)
    coeffs = np.array([1.0, 2.0, 3.0, 4.0])
    handles = lp.add_constraints_from_arrays(np.array([0, 0, 1, 1]), cols, coeffs, 0.0, 1.0)
    lp.set_column_coefficients_from_arrays(int(columns[1]), handles, [7.0, 8.0])
    assert coeffs.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert _stored(lp, int(handles[0])) == {0: 1.0, 1: 7.0}
    assert _stored(lp, int(handles[1])) == {1: 8.0, 2: 4.0}


def test_one_change_coeff_per_moved_coefficient_and_the_basis_is_kept():
    lp, _xs, y, rows, _total = _scaling_program()
    # x2 = 4y <= 1 binds before x0 + x1 + x2 = 7y <= 2 does: y = 1/4.
    assert lp.solve().objective_value == pytest.approx(0.25)
    recorder = _Recorder(
        lp._backend._highs, "changeCoeff", "addRows", "deleteRows", "passModel", "setBasis"
    )
    lp._backend._highs = recorder
    lp.set_column_coefficients_from_arrays(y, rows, [-1.0, -2.0, -2.0])  # only the last moves
    solution = lp.solve()
    assert solution.warm_started
    assert solution.objective_value == pytest.approx(_fresh_objective((1.0, 2.0, 2.0)))
    backend = lp._backend
    assert recorder.calls["changeCoeff"] == [(backend._row_of[rows[2]], y.index, -2.0)]
    assert not any(recorder.calls[name] for name in ("addRows", "deleteRows", "passModel", "setBasis"))

    # There and back again between two solves: nothing moved, nothing is pushed.
    recorder.calls["changeCoeff"].clear()
    lp.set_column_coefficients_from_arrays(y, rows, [-9.0, -9.0, -9.0])
    lp.set_column_coefficients_from_arrays(y, rows, [-1.0, -2.0, -2.0])
    again = lp.solve()
    assert recorder.calls["changeCoeff"] == []
    assert (again.warm_started, again.simplex_iterations) == (True, 0)


@pytest.mark.parametrize("rewrite_first", [True, False])
def test_composes_with_a_whole_row_rewrite_in_the_same_interval(rewrite_first):
    """Column edit and row rewrite of one row between two solves, in either order."""
    _column_edit_and_rewrite(rewrite_first, order=[0, 1, 2])


@pytest.mark.parametrize("rewrite_first", [True, False])
def test_column_edit_rows_reach_highs_in_first_edit_order(rewrite_first):
    """The same with the column edit naming its rows in reverse."""
    _column_edit_and_rewrite(rewrite_first, order=[2, 1, 0])


def _column_edit_and_rewrite(rewrite_first, order):
    lp, xs, y, rows, _total = _scaling_program()
    lp.solve()
    recorder = _Recorder(lp._backend._highs, "changeCoeff")
    lp._backend._highs = recorder

    def rewrite():
        # Row 0 becomes 2 * x0 - (its y term as the rewrite states it).
        lp.set_constraints_coefficients_from_arrays(
            [rows[0]], [0, 0], np.array([xs[0].index, y.index]), np.array([2.0, -1.5])
        )

    def edit_column():
        lp.set_column_coefficients_from_arrays(
            y, [rows[k] for k in order], [[-3.0, -1.0, -2.0][k] for k in order]
        )

    for action in (rewrite, edit_column) if rewrite_first else (edit_column, rewrite):
        action()
    expected_y0 = -3.0 if rewrite_first else -1.5
    assert _stored(lp, rows[0]) == {xs[0].index: 2.0, y.index: expected_y0}
    solution = lp.solve()
    assert solution.warm_started
    # Every coefficient that moved reaches HiGHS once, rows in the order
    # they were first edited.
    pushed = [(row, column) for row, column, _value in recorder.calls["changeCoeff"]]
    assert len(pushed) == len(set(pushed))
    first_edited = [0, *(k for k in order if k)] if rewrite_first else order
    row_of = lp._backend._row_of
    assert list(dict.fromkeys(row for row, _column in pushed)) == [
        row_of[rows[k]] for k in first_edited
    ]

    fresh = LinearProgram()
    fx = [fresh.add_variable(upper=1.0) for _ in xs]
    fy = fresh.add_variable()
    add_row(fresh, {fx[0].index: 2.0, fy.index: expected_y0}, lower=0.0)
    add_row(fresh, {fx[1].index: 1.0, fy.index: -1.0}, lower=0.0)
    add_row(fresh, {fx[2].index: 1.0, fy.index: -2.0}, lower=0.0)
    add_row(fresh, {x.index: 1.0 for x in fx}, upper=2.0)
    set_objective(fresh, {fy.index: 1.0})
    assert solution.objective_value == pytest.approx(fresh.solve().objective_value, rel=1e-12)
    # And the live model really holds what the program stores: a cold pass agrees.
    lp._backend = None
    assert lp.solve().objective_value == pytest.approx(solution.objective_value, rel=1e-12)


def test_rows_added_and_removed_in_the_same_interval():
    lp, _xs, y, rows, total = _scaling_program()
    lp.solve()
    newcomer = lp.add_variable("x3", upper=1.0)
    new_row = add_row(lp, {newcomer.index: 1.0}, lower=0.0)
    lp.add_terms_to_constraints_from_arrays([total], [0], [newcomer.index], [1.0])
    lp.remove_constraints([rows[0]])
    lp.set_column_coefficients_from_arrays(y, [rows[1], rows[2], new_row], [-1.0, -1.0, -0.5])
    solution = lp.solve()
    # x1 = x2 = y, x3 = y / 2, sum <= 2 (x0 idle): y = 4/5.
    assert solution.objective_value == pytest.approx(0.8)
    assert solution.row_duals([rows[1], rows[2], new_row]) == pytest.approx([-0.4, -0.4, -0.4])


def _bound_recorder(lp):
    recorder = _Recorder(lp._backend._highs, "changeRowBounds", "setOptionValue")
    lp._backend._highs = recorder
    return recorder


def _strategies(recorder):
    return [value for option, value in recorder.calls["setOptionValue"] if option == "simplex_strategy"]


def test_a_bound_sweep_pushes_only_the_rows_that_moved():
    lp, _xs, _y, rows, total = _scaling_program(requirements=(1.0, 2.0, 4.0, 8.0, 3.0))
    handles = [*rows, total]
    lower = [0.0] * len(rows) + [-np.inf]
    upper = [np.inf] * len(rows) + [2.0]
    lp.solve()
    recorder = _bound_recorder(lp)

    # Every row's current bounds sent again: HiGHS already holds them.
    lp.set_constraint_bounds_from_arrays(handles, lower=lower, upper=upper)
    lp.solve()
    assert recorder.calls["changeRowBounds"] == []

    # Two of six rows move, one of them there and back again: one push.
    lp.set_constraint_bounds_from_arrays([rows[1], rows[3]], lower=[-1.0, -5.0])
    lp.set_constraint_bounds_from_arrays([rows[3]], lower=0.0)
    lp.set_constraint_bounds_from_arrays(handles, upper=[*upper[:-1], 3.0])
    solution = lp.solve()
    backend = lp._backend
    assert sorted(recorder.calls["changeRowBounds"]) == [
        (backend._row_of[rows[1]], -1.0, np.inf),
        (backend._row_of[total], -np.inf, 3.0),
    ]
    assert solution.warm_started
    fresh, *_ = _scaling_program(requirements=(1.0, 2.0, 4.0, 8.0, 3.0))  # same handles
    fresh.set_constraint_bounds_from_arrays([rows[1]], lower=-1.0)
    fresh.set_constraint_bounds_from_arrays([total], upper=3.0)
    assert solution.objective_value == pytest.approx(fresh.solve().objective_value, rel=1e-12)


def test_deleting_rows_alone_runs_the_primal_simplex_and_a_no_op_sweep_the_dual():
    lp, _xs, _y, rows, _total = _scaling_program(requirements=(1.0, 2.0, 4.0, 8.0))
    lp.solve()
    recorder = _bound_recorder(lp)
    lp.remove_constraints([rows[0]])
    lp.remove_constraints([rows[2]])
    lp.solve()
    assert _strategies(recorder) == [_PRIMAL_SIMPLEX]

    # A journalled bound write selects the dual simplex even when it moved nothing.
    lp.remove_constraints([rows[1]])
    lp.set_constraint_bounds_from_arrays([rows[3]], lower=0.0)
    lp.solve()
    assert _strategies(recorder) == [_PRIMAL_SIMPLEX, _DUAL_SIMPLEX]
    assert recorder.calls["changeRowBounds"] == []


def test_a_column_edit_after_a_rewrite_pushes_each_coefficient_once():
    """A rewritten row's diff covers the column: one ``changeCoeff`` per moved entry.

    The pattern of the scaling program: an event rewrites a row's terms
    (dropping the ``y`` term, which the caller writes again), then the column
    is written across every row before the solve.
    """
    lp, xs, y, rows, _total = _scaling_program()
    lp.solve()
    recorder = _Recorder(lp._backend._highs, "changeCoeff")
    lp._backend._highs = recorder
    lp.set_constraints_coefficients_from_arrays([rows[0]], [0], [xs[0].index], [2.0])
    lp.set_column_coefficients_from_arrays(y, rows, [-3.0, -1.0, -2.0])
    solution = lp.solve()
    row_of = lp._backend._row_of
    # Rows in first-edit order: the rewritten row's diff (its y term once),
    # then the column entries of the rows kept whole.
    assert recorder.calls["changeCoeff"] == [
        (row_of[rows[0]], xs[0].index, 2.0),
        (row_of[rows[0]], y.index, -3.0),
        (row_of[rows[1]], y.index, -1.0),
        (row_of[rows[2]], y.index, -2.0),
    ]
    fresh, fxs, fy, frows, _ = _scaling_program((3.0, 1.0, 2.0))
    fresh.set_constraints_coefficients_from_arrays(
        [frows[0]], [0, 0], np.array([fxs[0].index, fy.index]), np.array([2.0, -3.0])
    )
    assert solution.objective_value == pytest.approx(fresh.solve().objective_value, rel=1e-12)


def test_a_column_edit_takes_its_place_among_rewritten_rows():
    """A column edit logs its rows in the order they were first edited, diffed by value."""
    lp, xs, y, rows, total = _scaling_program()
    lp.solve()
    recorder = _Recorder(lp._backend._highs, "changeCoeff")
    lp._backend._highs = recorder
    lp.set_constraints_coefficients_from_arrays(
        [total], [0, 0, 0], np.array([x.index for x in xs]), np.array([1.0, 1.0, 2.0])
    )
    lp.set_column_coefficients_from_arrays(y, [rows[2], rows[0]], [-5.0, -6.0])
    lp.set_column_coefficients_from_arrays(y, [rows[1]], [-2.0])  # unchanged
    solution = lp.solve()
    row_of = lp._backend._row_of
    assert recorder.calls["changeCoeff"] == [
        (row_of[total], xs[2].index, 2.0),
        (row_of[rows[2]], y.index, -5.0),
        (row_of[rows[0]], y.index, -6.0),
    ]
    assert solution.warm_started
    lp._backend = None
    assert lp.solve().objective_value == pytest.approx(solution.objective_value, rel=1e-12)

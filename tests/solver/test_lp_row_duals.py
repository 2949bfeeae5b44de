"""Row duals on request: ``Solution.row_duals(handles)``.

Checked against LPs solved by hand, in both objective senses (the sign
convention is HiGHS': d objective / d binding bound), after a warm re-solve,
and after a ``remove_constraints`` moved the handle -> row map.  A solve that
does not ask for duals must execute exactly the HiGHS calls it executed
before duals existed.
"""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.solver import LinearProgram
from tests.lp_rows import add_row, set_objective


def _program():
    """max x + y  s.t.  x + 2y <= 4,  x <= 3,  x + y >= 1/2  (optimum (3, 1/2), value 7/2)."""
    lp = LinearProgram(name="duals")
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    wide = add_row(lp, {x.index: 1.0, y.index: 2.0}, upper=4.0)
    cap = add_row(lp, {x.index: 1.0}, upper=3.0)
    floor = add_row(lp, {x.index: 1.0, y.index: 1.0}, lower=0.5)
    set_objective(lp, {x.index: 1.0, y.index: 1.0})
    return lp, (x, y), (wide, cap, floor)


def test_hand_solved_maximization():
    """Binding ``<=`` rows of a maximization have duals ``>= 0``; a slack row has 0.

    At (3, 1/2): one more unit of ``x + 2y <= 4`` buys half a unit of ``y``
    (+1/2), one more unit of ``x <= 3`` trades half a unit of ``y`` for one of
    ``x`` (+1/2), and ``x + y >= 1/2`` is slack.
    """
    lp, _variables, (wide, cap, floor) = _program()
    solution = lp.solve()
    assert solution.objective_value == pytest.approx(3.5)
    assert solution.row_duals([wide, cap, floor]) == pytest.approx([0.5, 0.5, 0.0])
    # Any order, any subset, ndarray or list.
    assert solution.row_duals(np.array([floor, wide])) == pytest.approx([0.0, 0.5])


def test_hand_solved_minimization_and_the_binding_lower_bound():
    """Minimizing, the binding ``>=`` row has dual +1; maximizing it would be ``<= 0``."""
    lp, (x, y), (wide, cap, floor) = _program()
    set_objective(lp, {x.index: 1.0, y.index: 1.0}, maximize=False)
    solution = lp.solve()
    assert solution.objective_value == pytest.approx(0.5)
    assert solution.row_duals([wide, cap, floor]) == pytest.approx([0.0, 0.0, 1.0])

    # max -(x + y) over the same rows: raising the floor now *lowers* the objective.
    set_objective(lp, {x.index: -1.0, y.index: -1.0})
    flipped = lp.solve()
    assert flipped.objective_value == pytest.approx(-0.5)
    assert flipped.row_duals([floor]) == pytest.approx([-1.0])


def test_duals_follow_a_warm_re_solve():
    lp, _variables, (wide, cap, floor) = _program()
    lp.solve()
    lp.set_constraint_bounds_from_arrays([cap], upper=1.0)  # optimum moves to (1, 3/2)
    solution = lp.solve()
    assert solution.warm_started
    assert solution.objective_value == pytest.approx(2.5)
    assert solution.row_duals([wide, cap, floor]) == pytest.approx([0.5, 0.5, 0.0])
    # (1, 99/2): same binding rows, same duals.
    lp.set_constraint_bounds_from_arrays([wide], upper=100.0)
    relaxed = lp.solve()
    assert relaxed.objective_value == pytest.approx(1.0 + 49.5)
    assert relaxed.row_duals([wide, cap]) == pytest.approx([0.5, 0.5])


def test_duals_are_read_by_handle_after_the_row_map_moved():
    """Removing the first row shifts every later row down by one inside HiGHS."""
    lp, (x, y), (wide, cap, floor) = _program()
    extra = add_row(lp, {y.index: 1.0}, upper=0.25)  # binds: optimum (3, 1/4)
    first = lp.solve()
    assert first.row_duals([wide, cap, floor, extra]) == pytest.approx([0.0, 1.0, 0.0, 1.0])
    lp.remove_constraints([wide])
    solution = lp.solve()
    assert solution.objective_value == pytest.approx(3.25)
    assert solution.row_duals([extra, floor, cap]) == pytest.approx([1.0, 0.0, 1.0])
    with pytest.raises(SolverError, match="was not a row of that solve"):
        solution.row_duals([wide])


def test_duals_belong_to_the_latest_solve_only():
    lp, _variables, (wide, _cap, _floor) = _program()
    stale = lp.solve()
    lp.solve()
    with pytest.raises(SolverError, match="before the program is solved again"):
        stale.row_duals([wide])


def test_a_row_added_after_the_solve_has_no_dual_in_it():
    lp, (x, _y), (wide, _cap, _floor) = _program()
    solution = lp.solve()
    late = add_row(lp, {x.index: 1.0}, upper=2.0)
    assert solution.row_duals([wide]) == pytest.approx([0.5])  # edits since do not matter
    with pytest.raises(SolverError, match="was not a row of that solve"):
        solution.row_duals([late])


def test_milp_solves_have_no_duals():
    lp, (x, _y), (wide, _cap, _floor) = _program()
    solution = lp.solve(integer_columns=np.array([x.index]))
    with pytest.raises(SolverError, match="pure-LP solves only"):
        solution.row_duals([wide])


class _CallCounter:
    """Delegating proxy that counts every HiGHS method call by name."""

    def __init__(self, real):
        self._real = real
        self.calls = {}

    def __getattr__(self, name):
        attribute = getattr(self._real, name)
        if not callable(attribute):
            return attribute

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return attribute(*args, **kwargs)

        return counted


def test_a_solve_that_does_not_ask_pays_nothing():
    """Per solve: one ``getBasis``, ``run``, ``getModelStatus``, two scalar info reads
    and one ``getSolution``.

    That is the call list of a bound-edit re-solve before duals existed; the
    duals cost one more ``getSolution`` on the solve that asks, at the time it
    asks.
    """
    lp, _variables, (wide, cap, _floor) = _program()
    lp.solve()
    counter = _CallCounter(lp._backend._highs)
    lp._backend._highs = counter
    lp.set_constraint_bounds_from_arrays([cap], upper=2.0)
    solution = lp.solve()
    quiet = dict(counter.calls)
    assert quiet == {
        "setOptionValue": 1,  # the simplex strategy
        "changeRowBounds": 1,
        "getBasis": 1,
        "run": 1,
        "getModelStatus": 1,
        "getInfoValue": 1,
        "getObjectiveValue": 1,
        "getSolution": 1,
    }
    solution.row_duals([wide])
    assert counter.calls == {**quiet, "getSolution": 2}

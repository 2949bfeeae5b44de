"""Tests for linear-fractional programming (Dinkelbach's method on one live LP)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.optimize import linprog

from repro.exceptions import InfeasibleError, SolverError
from repro.solver import FractionalProgram, LinearProgram
from tests.lp_rows import add_row


def _terms(terms, constant=0.0):
    """One ratio side, ``sum(coefficient * variable) + constant``, as the program takes it."""
    return [variable.index for variable in terms], list(terms.values()), constant


class TestFractionalProgram:
    def test_simple_ratio(self):
        """max (x + 2y) / (x + y + 1) over the unit box: optimum at x=0, y=1."""
        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        program.set_ratio_objective(_terms({x: 1.0, y: 2.0}), _terms({x: 1.0, y: 1.0}, 1.0))
        solution = program.solve()
        assert solution.objective_value == pytest.approx(1.0, abs=1e-5)
        assert solution.values[y.index] == pytest.approx(1.0, abs=1e-5)
        assert solution.values[x.index] == pytest.approx(0.0, abs=1e-5)

    def test_constant_denominator_reduces_to_lp(self):
        """max (3x) / 2 over x in [0, 1] is 1.5 at x = 1."""
        program = FractionalProgram()
        x = program.add_variable("x")
        program.set_ratio_objective(_terms({x: 3.0}), _terms({x: 0.0}, 2.0))
        solution = program.solve()
        assert solution.objective_value == pytest.approx(1.5, abs=1e-6)
        assert solution.values[x.index] == pytest.approx(1.0, abs=1e-6)

    def test_constraints_respected(self):
        """max x / (0.5x + 1) with x <= 0.4."""
        program = FractionalProgram()
        x = program.add_variable("x")
        add_row(program, {x.index: 1.0}, upper=0.4)
        program.set_ratio_objective(_terms({x: 1.0}), _terms({x: 0.5}, 1.0))
        solution = program.solve()
        assert solution.values[x.index] == pytest.approx(0.4, abs=1e-5)
        assert solution.objective_value == pytest.approx(0.4 / 1.2, abs=1e-5)

    def test_greater_equal_constraint(self):
        """Throughput-per-cost shape: prefer the cheap variable but keep a floor on the fast one."""
        program = FractionalProgram()
        fast = program.add_variable("fast")
        cheap = program.add_variable("cheap")
        add_row(program, {fast.index: 4.0, cheap.index: 1.0}, lower=1.0)  # minimum throughput
        program.set_ratio_objective(
            _terms({fast: 4.0, cheap: 1.0}), _terms({fast: 3.0, cheap: 0.5}, 1e-6)
        )
        solution = program.solve()
        # Cost-normalized throughput of cheap (2.0/unit) beats fast (1.33/unit).
        assert solution.values[cheap.index] > solution.values[fast.index]

    def test_equality_constraint(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        # Equal bounds select the '==' sense.
        program.add_constraints_from_arrays([0, 0], [x.index, y.index], [1.0, 1.0], 1.0, 1.0)
        program.set_ratio_objective(_terms({x: 2.0, y: 1.0}), _terms({x: 1.0, y: 1.0}))
        solution = program.solve()
        assert solution.values[x.index] + solution.values[y.index] == pytest.approx(1.0, abs=1e-6)
        assert solution.objective_value == pytest.approx(2.0, abs=1e-4)

    def test_missing_objective_raises(self):
        program = FractionalProgram()
        program.add_variable("x")
        with pytest.raises(SolverError):
            program.solve()

    def test_no_variables_raises(self):
        program = FractionalProgram()
        program.set_ratio_objective(([], [], 0.0), ([], [], 0.0))
        with pytest.raises(SolverError):
            program.solve()

    def test_infinite_bounds_rejected(self):
        """An unbounded box makes ``max N`` unbounded from λ = 0: rejected at solve time."""
        program = FractionalProgram()
        x = program.add_variable("x", lower=0.0, upper=float("inf"))
        program.set_ratio_objective(_terms({x: 1.0}), _terms({x: 1.0}, 1.0))
        with pytest.raises(SolverError):
            program.solve()
        program.set_variable_bounds_from_arrays([x.index], 0.0, 1.0)
        assert program.solve().objective_value == pytest.approx(0.5)

    def test_infeasible_constraints(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        add_row(program, {x.index: 1.0}, lower=2.0)  # impossible with x <= 1
        program.set_ratio_objective(_terms({x: 1.0}), _terms({x: 1.0}, 1.0))
        with pytest.raises((InfeasibleError, SolverError)):
            program.solve()


class TestDinkelbachIteration:
    """λ, the stop rule and the non-positive-denominator rule."""

    @staticmethod
    def _counting(monkeypatch):
        solved = []
        solve = LinearProgram.solve

        def recording(program, *args, **kwargs):
            solved.append(solve(program, *args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(LinearProgram, "solve", recording)
        return solved

    def test_re_solve_starts_at_the_previous_ratio(self, monkeypatch):
        """An unchanged program certifies its ratio in one warm LP: F(λ) = 0 at once."""
        solved = self._counting(monkeypatch)
        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        add_row(program, {x.index: 1.0, y.index: 1.0}, upper=1.5)
        program.set_ratio_objective(_terms({x: 1.0, y: 2.0}), _terms({x: 1.0, y: 1.0}, 1.0))
        first = program.solve()
        assert len(solved) >= 2  # from λ = 0: at least one step and its certificate
        solved.clear()
        again = program.solve()
        assert len(solved) == 1 and solved[0].warm_started
        assert again.objective_value == pytest.approx(first.objective_value, rel=1e-12)

    def test_lambda_above_the_new_optimum_comes_down_in_one_step(self, monkeypatch):
        """A tightened program starts above its optimum; one LP lands on a feasible ratio."""
        solved = self._counting(monkeypatch)
        program = FractionalProgram()
        x = program.add_variable("x")
        cap = add_row(program, {x.index: 1.0}, upper=1.0)
        program.set_ratio_objective(_terms({x: 1.0}), _terms({x: 0.5}, 1.0))
        assert program.solve().objective_value == pytest.approx(1.0 / 1.5)
        program.set_constraint_bounds_from_arrays([cap], upper=0.4)
        solved.clear()
        assert program.solve().objective_value == pytest.approx(0.4 / 1.2)
        assert len(solved) == 2

    def test_vanishing_denominator_returns_the_iterate_that_set_lambda(self):
        """max (x + 1) / x: λ = 2 at x = 1, then max 1 - x lands on D = 0."""
        program = FractionalProgram()
        x = program.add_variable("x")
        program.set_ratio_objective(_terms({x: 1.0}, 1.0), _terms({x: 1.0}))
        solution = program.solve()
        assert solution.values[x.index] == pytest.approx(1.0)
        assert solution.objective_value == pytest.approx(2.0)

    def test_non_positive_denominator_on_the_first_lp_raises(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        program.set_ratio_objective(_terms({x: 1.0}), _terms({x: -1.0}))
        with pytest.raises(InfeasibleError):
            program.solve()


class TestEditsBetweenSolves:
    """Every mutation edits the one live program; re-solves see all of them."""

    def test_constraint_add_and_remove_mirrored(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        program.set_ratio_objective(_terms({x: 1.0}), _terms({x: 0.5}, 1.0))
        first = program.solve()
        assert first.values[x.index] == pytest.approx(1.0, abs=1e-6)
        handle = add_row(program, {x.index: 1.0}, upper=0.4)
        capped = program.solve()
        assert capped.values[x.index] == pytest.approx(0.4, abs=1e-6)
        program.remove_constraints([handle])
        released = program.solve()
        assert released.values[x.index] == pytest.approx(1.0, abs=1e-6)

    def test_rhs_edit_mirrored(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        handle = add_row(program, {x.index: 1.0}, upper=0.4)
        program.set_ratio_objective(_terms({x: 1.0}), _terms({x: 0.0}, 1.0))
        assert program.solve().values[x.index] == pytest.approx(0.4, abs=1e-6)
        program.set_constraint_bounds_from_arrays([handle], upper=0.7)
        assert program.solve().values[x.index] == pytest.approx(0.7, abs=1e-6)

    def test_bulk_rhs_edit_mirrored(self):
        """set_constraint_bounds_from_arrays sweeps many rows through the live LP."""
        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        x_cap = add_row(program, {x.index: 1.0}, upper=0.4)
        y_floor = add_row(program, {y.index: 1.0}, lower=0.1)
        program.set_ratio_objective(_terms({x: 1.0, y: -1.0}), _terms({x: 0.0}, 1.0))
        solution = program.solve()
        assert solution.values[x.index] == pytest.approx(0.4, abs=1e-6)
        assert solution.values[y.index] == pytest.approx(0.1, abs=1e-6)
        # One bulk sweep per side: raise the <= cap, raise the >= floor,
        # broadcasting against the handle array.
        program.set_constraint_bounds_from_arrays([x_cap], upper=np.array([0.8]))
        program.set_constraint_bounds_from_arrays([y_floor], lower=0.3)
        solution = program.solve()
        assert solution.values[x.index] == pytest.approx(0.8, abs=1e-6)
        assert solution.values[y.index] == pytest.approx(0.3, abs=1e-6)

    def test_term_edits_mirrored(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        handle = add_row(program, {x.index: 1.0}, upper=0.5)
        program.set_ratio_objective(_terms({x: 1.0, y: 1.0}), _terms({x: 0.0}, 1.0))
        solution = program.solve()
        assert solution.values[x.index] == pytest.approx(0.5, abs=1e-6)
        assert solution.values[y.index] == pytest.approx(1.0, abs=1e-6)
        # Now x + y <= 0.5.
        program.add_terms_to_constraints_from_arrays([handle], [0], [y.index], [1.0])
        constrained = program.solve()
        assert constrained.values[[x.index, y.index]].sum() == pytest.approx(0.5, abs=1e-6)
        program.remove_terms_from_constraints([handle], [x.index])  # back to y-only cap
        relaxed = program.solve()
        assert relaxed.values[x.index] == pytest.approx(1.0, abs=1e-6)
        assert relaxed.values[y.index] == pytest.approx(0.5, abs=1e-6)

    def test_variable_bounds_and_recycling_mirrored(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        program.set_ratio_objective(_terms({x: 1.0, y: 1.0}), _terms({x: 0.0}, 1.0))
        assert program.solve().objective_value == pytest.approx(2.0, abs=1e-5)
        program.set_variable_bounds_from_arrays([y.index], 0.0, 0.25)
        assert program.solve().objective_value == pytest.approx(1.25, abs=1e-5)
        program.release_variables([y.index])
        program.set_ratio_objective(_terms({x: 1.0}), _terms({x: 0.0}, 1.0))
        assert program.solve().objective_value == pytest.approx(1.0, abs=1e-5)
        recycled = program.add_variable("z", lower=0.0, upper=0.5)
        assert recycled.index == y.index
        program.set_ratio_objective(_terms({x: 1.0, recycled: 1.0}), _terms({x: 0.0}, 1.0))
        assert program.solve().objective_value == pytest.approx(1.5, abs=1e-5)

    def test_tag_scope_clear_mirrored(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        program.set_ratio_objective(_terms({x: 1.0}), _terms({x: 0.0}, 1.0))
        program.solve()
        rows_before = program.num_constraints()
        program.begin_tag("objective")
        add_row(program, {x.index: 1.0}, upper=0.3)
        program.end_tag()
        assert program.solve().values[x.index] == pytest.approx(0.3, abs=1e-6)
        program.clear_tag("objective")
        assert program.solve().values[x.index] == pytest.approx(1.0, abs=1e-6)
        # The program sheds the removed rows instead of accreting garbage.
        assert program.num_constraints() == rows_before

    def test_matches_fresh_rebuild_after_churn(self):
        """An edited program and a from-scratch rebuild agree on the optimum."""
        program = FractionalProgram()
        xs = program.add_variables_from_arrays(4)
        cap = add_row(program, dict.fromkeys(xs.tolist(), 1.0), upper=2.0)
        program.set_ratio_objective((xs, [1.0, 2.0, 3.0, 4.0], 0.0), (xs, np.ones(4), 1.0))
        program.solve()
        # Churn: tighten the cap, drop a variable, re-solve.
        program.set_constraint_bounds_from_arrays([cap], upper=1.5)
        program.remove_terms_from_constraints([cap], xs[:1])
        program.set_variable_bounds_from_arrays(xs[:1], 0.0, 0.0)
        edited = program.solve()

        fresh = FractionalProgram()
        ys = fresh.add_variables_from_arrays(4)
        fresh.set_variable_bounds_from_arrays(ys[:1], 0.0, 0.0)
        add_row(fresh, dict.fromkeys(ys[1:].tolist(), 1.0), upper=1.5)
        fresh.set_ratio_objective((ys, [1.0, 2.0, 3.0, 4.0], 0.0), (ys, np.ones(4), 1.0))
        scratch = fresh.solve()
        assert edited.objective_value == pytest.approx(scratch.objective_value, rel=1e-6)


def _charnes_cooper_ratio(lower, upper, rows, numerator, denominator):
    """The optimum ratio by the Charnes–Cooper LP, built here and solved by ``linprog``.

    With ``y = x·t`` and ``t = 1 / D(x)``: maximize ``c·y + c0·t`` subject to
    ``d·y + d0·t = 1``, every row ``a·x (sense) b`` as ``a·y − b·t (sense) 0``
    and every bound as ``lower·t <= y <= upper·t``, with ``t >= 0``.
    """
    n = len(lower)
    (c, c0), (d, d0) = numerator, denominator
    upper_rows = []
    for coefficients, sense, rhs in rows.values():
        row = np.append(coefficients, -rhs)
        upper_rows.append(row if sense == "<=" else -row)
    for i in range(n):
        link = np.zeros(n + 1)
        link[i], link[n] = 1.0, -upper[i]
        upper_rows.append(link.copy())
        link[i], link[n] = -1.0, lower[i]
        upper_rows.append(link)
    result = linprog(
        -np.append(c, c0),
        A_ub=np.array(upper_rows),
        b_ub=np.zeros(len(upper_rows)),
        A_eq=np.append(d, d0)[None, :],
        b_eq=[1.0],
        bounds=[(None, None)] * n + [(0.0, None)],
        method="highs",
    )
    assert result.status == 0, result.message
    # The ratio at the optimal point, which no scale of (y, t) changes; the
    # LP's own objective is off by the tolerance on its normalisation row.
    return float(np.append(c, c0) @ result.x) / float(np.append(d, d0) @ result.x)


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["add_row", "remove_row", "move_rhs", "bounds", "release", "add_variable"]),
        st.integers(0, 1_000),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=10,
)


class TestAgainstCharnesCooperOracle:
    """Random boxes with ``D > 0`` and random edits between solves: the ratio is the optimum."""

    @given(seed=st.integers(0, 2**32 - 1), edits=_EDITS, solve_every=st.integers(1, 3))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ratio_matches_an_independent_charnes_cooper_lp(self, seed, edits, solve_every):
        rng = np.random.default_rng(seed)
        program = FractionalProgram()
        # The test's own model of the program, and a point every edit keeps
        # feasible (released variables sit at 0 in it).
        lower, upper, point, c, d = [], [], [], [], []
        released = []
        rows = {}

        def add_variable():
            low = float(rng.uniform(0.0, 0.5))
            high = low + float(rng.uniform(0.0, 1.0))
            index = program.add_variable(lower=low, upper=high).index
            if released:
                assert index == released.pop()  # recycled, last released first
            else:
                assert index == len(lower)
                for vector in (lower, upper, point, c, d):
                    vector.append(0.0)
            lower[index], upper[index] = low, high
            point[index] = float(rng.uniform(low, high))
            c[index], d[index] = float(rng.uniform(-2.0, 3.0)), float(rng.uniform(0.0, 2.0))

        def rhs_keeping_the_point(coefficients, sense, slack):
            at_point = float(np.dot(coefficients, point[: len(coefficients)]))
            return at_point + slack if sense == "<=" else at_point - slack

        def move_rhs(handle, coefficients, sense, rhs):
            if sense == "<=":
                program.set_constraint_bounds_from_arrays([handle], upper=rhs)
            else:
                program.set_constraint_bounds_from_arrays([handle], lower=rhs)
            rows[handle] = (coefficients, sense, rhs)

        def add_random_row(slack):
            active = [i for i in range(len(lower)) if i not in released]
            columns = rng.choice(active, size=int(rng.integers(1, len(active) + 1)), replace=False)
            coefficients = np.zeros(len(lower))
            coefficients[columns] = rng.uniform(-1.0, 1.0, size=len(columns))
            sense = "<=" if rng.random() < 0.5 else ">="
            rhs = rhs_keeping_the_point(coefficients, sense, slack)
            terms = {int(i): float(coefficients[i]) for i in columns}
            bounds = {"upper": rhs} if sense == "<=" else {"lower": rhs}
            rows[add_row(program, terms, **bounds)] = (coefficients, sense, rhs)

        for _ in range(int(rng.integers(2, 6))):
            add_variable()
        for _ in range(int(rng.integers(0, 4))):
            add_random_row(float(rng.uniform(0.0, 0.5)))
        c0, d0 = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.1, 1.0))

        def check():
            columns = np.arange(len(c))
            program.set_ratio_objective((columns, c, c0), (columns, d, d0))
            solution = program.solve()
            size = len(lower)
            padded = lambda values: np.pad(np.asarray(values, dtype=float), (0, size - len(values)))
            expected = _charnes_cooper_ratio(
                np.array(lower), np.array(upper), {h: (padded(a), s, b) for h, (a, s, b) in rows.items()},
                (np.array(c), c0), (np.array(d), d0),
            )
            assert solution.objective_value == pytest.approx(expected, rel=1e-9, abs=1e-12)
            x = solution.values[:size]
            achieved = (np.dot(c, x) + c0) / (np.dot(d, x) + d0)
            assert solution.objective_value == pytest.approx(achieved, rel=1e-9, abs=1e-12)

        check()
        for step, (kind, pick, first, second) in enumerate(edits):
            active = [i for i in range(len(lower)) if i not in released]
            if kind == "add_row" and active:
                add_random_row(0.5 * first)
            elif kind == "remove_row" and rows:
                handle = sorted(rows)[pick % len(rows)]
                program.remove_constraints([handle])
                del rows[handle]
            elif kind == "move_rhs" and rows:
                handle = sorted(rows)[pick % len(rows)]
                coefficients, sense, _rhs = rows[handle]
                move_rhs(handle, coefficients, sense, rhs_keeping_the_point(coefficients, sense, 0.5 * first))
            elif kind == "bounds" and active:
                index = active[pick % len(active)]
                lower[index] = point[index] * first
                upper[index] = point[index] + second
                program.set_variable_bounds_from_arrays([index], lower[index], upper[index])
            elif kind == "release" and len(active) > 1:
                index = active[pick % len(active)]
                for handle, (coefficients, sense, rhs) in list(rows.items()):
                    if index < len(coefficients) and coefficients[index] != 0.0:
                        # Scrub the column, and move the bound by what it
                        # contributed at the point so the point stays feasible.
                        program.remove_terms_from_constraints([handle], [index])
                        rhs -= coefficients[index] * point[index]
                        coefficients = coefficients.copy()
                        coefficients[index] = 0.0
                        move_rhs(handle, coefficients, sense, rhs)
                program.release_variables([index])
                released.append(index)
                lower[index] = upper[index] = point[index] = c[index] = d[index] = 0.0
            elif kind == "add_variable":
                add_variable()
            if step % solve_every == 0 or step == len(edits) - 1:
                check()

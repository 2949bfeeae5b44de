"""Tests for linear-fractional programming (Charnes–Cooper)."""

import pytest

from repro.exceptions import InfeasibleError, SolverError
from repro.solver import FractionalProgram


class TestFractionalProgram:
    def test_simple_ratio(self):
        """max (x + 2y) / (x + y + 1) over the unit box: optimum at x=0, y=1."""
        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        program.set_ratio_objective(x * 1.0 + y * 2.0, x * 1.0 + y * 1.0 + 1.0)
        solution = program.solve()
        assert solution.objective_value == pytest.approx(1.0, abs=1e-5)
        assert solution.value_of(y) == pytest.approx(1.0, abs=1e-5)
        assert solution.value_of(x) == pytest.approx(0.0, abs=1e-5)

    def test_constant_denominator_reduces_to_lp(self):
        """max (3x) / 2 over x in [0, 1] is 1.5 at x = 1."""
        program = FractionalProgram()
        x = program.add_variable("x")
        program.set_ratio_objective(x * 3.0, x * 0.0 + 2.0)
        solution = program.solve()
        assert solution.objective_value == pytest.approx(1.5, abs=1e-6)
        assert solution.value_of(x) == pytest.approx(1.0, abs=1e-6)

    def test_constraints_respected(self):
        """max x / (0.5x + 1) with x <= 0.4."""
        program = FractionalProgram()
        x = program.add_variable("x")
        program.add_less_equal(x * 1.0, 0.4)
        program.set_ratio_objective(x * 1.0, x * 0.5 + 1.0)
        solution = program.solve()
        assert solution.value_of(x) == pytest.approx(0.4, abs=1e-5)
        assert solution.objective_value == pytest.approx(0.4 / 1.2, abs=1e-5)

    def test_greater_equal_constraint(self):
        """Throughput-per-cost shape: prefer the cheap variable but keep a floor on the fast one."""
        program = FractionalProgram()
        fast = program.add_variable("fast")
        cheap = program.add_variable("cheap")
        program.add_greater_equal(fast * 4.0 + cheap * 1.0, 1.0)  # minimum throughput
        program.set_ratio_objective(fast * 4.0 + cheap * 1.0, fast * 3.0 + cheap * 0.5 + 1e-6)
        solution = program.solve()
        # Cost-normalized throughput of cheap (2.0/unit) beats fast (1.33/unit).
        assert solution.value_of(cheap) > solution.value_of(fast)

    def test_equality_constraint(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        # Equal bounds select the '==' sense.
        program.add_constraints_from_arrays([0, 0], [x.index, y.index], [1.0, 1.0], 1.0, 1.0)
        program.set_ratio_objective(x * 2.0 + y * 1.0, x * 1.0 + y * 1.0)
        solution = program.solve()
        assert solution.value_of(x) + solution.value_of(y) == pytest.approx(1.0, abs=1e-6)
        assert solution.objective_value == pytest.approx(2.0, abs=1e-4)

    def test_missing_objective_raises(self):
        program = FractionalProgram()
        program.add_variable("x")
        with pytest.raises(SolverError):
            program.solve()

    def test_no_variables_raises(self):
        program = FractionalProgram()
        program.set_ratio_objective({}, {})
        with pytest.raises(SolverError):
            program.solve()

    def test_infinite_bounds_rejected(self):
        program = FractionalProgram()
        with pytest.raises(SolverError):
            program.add_variable("x", lower=0.0, upper=float("inf"))

    def test_infeasible_constraints(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        program.add_greater_equal(x * 1.0, 2.0)  # impossible with x <= 1
        program.set_ratio_objective(x * 1.0, x * 1.0 + 1.0)
        with pytest.raises((InfeasibleError, SolverError)):
            program.solve()

    def test_solution_scale_is_positive(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        program.set_ratio_objective(x * 1.0 + 1.0, x * 1.0 + 2.0)
        solution = program.solve()
        assert solution.scale > 0


class TestPersistentCharnesCooper:
    """The reduced LP survives across solves and tracks every mutation."""

    def test_cc_program_built_lazily_and_kept(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        program.set_ratio_objective(x * 1.0, x * 1.0 + 1.0)
        assert program.charnes_cooper_program is None
        program.solve()
        cc = program.charnes_cooper_program
        assert cc is not None
        program.solve()
        assert program.charnes_cooper_program is cc

    def test_constraint_add_and_remove_mirrored(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        program.set_ratio_objective(x * 1.0, x * 0.5 + 1.0)
        first = program.solve()
        assert first.value_of(x) == pytest.approx(1.0, abs=1e-6)
        handle = program.add_less_equal(x * 1.0, 0.4)
        capped = program.solve()
        assert capped.value_of(x) == pytest.approx(0.4, abs=1e-6)
        program.remove_constraint(handle)
        released = program.solve()
        assert released.value_of(x) == pytest.approx(1.0, abs=1e-6)

    def test_rhs_edit_mirrored(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        handle = program.add_less_equal(x * 1.0, 0.4)
        program.set_ratio_objective(x * 1.0, x * 0.0 + 1.0)
        assert program.solve().value_of(x) == pytest.approx(0.4, abs=1e-6)
        program.set_constraint_bounds(handle, upper=0.7)
        assert program.solve().value_of(x) == pytest.approx(0.7, abs=1e-6)

    def test_bulk_rhs_edit_mirrored(self):
        """set_constraint_bounds_from_arrays sweeps many rows through the live CC LP."""
        import numpy as np

        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        x_cap = program.add_less_equal(x * 1.0, 0.4)
        y_floor = program.add_greater_equal(y * 1.0, 0.1)
        program.set_ratio_objective(x * 1.0 + y * -1.0, x * 0.0 + 1.0)
        solution = program.solve()
        assert solution.value_of(x) == pytest.approx(0.4, abs=1e-6)
        assert solution.value_of(y) == pytest.approx(0.1, abs=1e-6)
        # One bulk sweep: raise the <= cap, raise the >= floor (sense-matched
        # sides), broadcasting against the handle array like the LP twin.
        program.set_constraint_bounds_from_arrays([x_cap], upper=np.array([0.8]))
        program.set_constraint_bounds_from_arrays([y_floor], lower=0.3)
        solution = program.solve()
        assert solution.value_of(x) == pytest.approx(0.8, abs=1e-6)
        assert solution.value_of(y) == pytest.approx(0.3, abs=1e-6)
        # Sense mismatches surface the scalar API's errors unchanged.
        with pytest.raises(SolverError):
            program.set_constraint_bounds_from_arrays([x_cap], lower=0.1)

    def test_term_edits_mirrored(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        handle = program.add_less_equal(x * 1.0, 0.5)
        program.set_ratio_objective(x * 1.0 + y * 1.0, x * 0.0 + 1.0)
        solution = program.solve()
        assert solution.value_of(x) == pytest.approx(0.5, abs=1e-6)
        assert solution.value_of(y) == pytest.approx(1.0, abs=1e-6)
        program.add_terms_to_constraint(handle, {y.index: 1.0})  # now x + y <= 0.5
        constrained = program.solve()
        assert constrained.value_of(x) + constrained.value_of(y) == pytest.approx(0.5, abs=1e-6)
        program.remove_terms_from_constraint(handle, [x.index])  # back to y-only cap
        relaxed = program.solve()
        assert relaxed.value_of(x) == pytest.approx(1.0, abs=1e-6)
        assert relaxed.value_of(y) == pytest.approx(0.5, abs=1e-6)

    def test_variable_bounds_and_recycling_mirrored(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        program.set_ratio_objective(x * 1.0 + y * 1.0, x * 0.0 + 1.0)
        assert program.solve().objective_value == pytest.approx(2.0, abs=1e-5)
        program.set_variable_bounds(y, 0.0, 0.25)
        assert program.solve().objective_value == pytest.approx(1.25, abs=1e-5)
        program.release_variable(y)
        program.set_ratio_objective(x * 1.0, x * 0.0 + 1.0)
        assert program.solve().objective_value == pytest.approx(1.0, abs=1e-5)
        recycled = program.add_variable("z", lower=0.0, upper=0.5)
        assert recycled.index == y.index
        program.set_ratio_objective(x * 1.0 + recycled * 1.0, x * 0.0 + 1.0)
        assert program.solve().objective_value == pytest.approx(1.5, abs=1e-5)

    def test_tag_scope_clear_mirrored(self):
        program = FractionalProgram()
        x = program.add_variable("x")
        program.set_ratio_objective(x * 1.0, x * 0.0 + 1.0)
        program.solve()
        cc = program.charnes_cooper_program
        rows_before = cc.num_constraints()
        program.begin_tag("objective")
        program.add_less_equal(x * 1.0, 0.3)
        program.end_tag()
        assert program.solve().value_of(x) == pytest.approx(0.3, abs=1e-6)
        program.clear_tag("objective")
        assert program.solve().value_of(x) == pytest.approx(1.0, abs=1e-6)
        # The mirror sheds the removed rows instead of accreting garbage
        # (the denominator row is added by the first solve after build).
        assert cc.num_constraints() <= rows_before + 1

    def test_matches_fresh_rebuild_after_churn(self):
        """An edited program and a from-scratch rebuild agree on the optimum."""
        program = FractionalProgram()
        xs = program.add_variables(4, name_prefix="x")
        cap = program.add_less_equal({v.index: 1.0 for v in xs}, 2.0)
        program.set_ratio_objective(
            sum((v * float(i + 1) for i, v in enumerate(xs)), xs[0] * 0.0),
            sum((v * 1.0 for v in xs), xs[0] * 0.0) + 1.0,
        )
        program.solve()
        # Churn: tighten the cap, drop a variable, re-solve.
        program.set_constraint_bounds(cap, upper=1.5)
        program.remove_terms_from_constraint(cap, [xs[0].index])
        program.fix_variable(xs[0], 0.0)
        edited = program.solve()

        fresh = FractionalProgram()
        ys = fresh.add_variables(4, name_prefix="x")
        fresh.fix_variable(ys[0], 0.0)
        fresh.add_less_equal({v.index: 1.0 for v in ys[1:]}, 1.5)
        fresh.set_ratio_objective(
            sum((v * float(i + 1) for i, v in enumerate(ys)), ys[0] * 0.0),
            sum((v * 1.0 for v in ys), ys[0] * 0.0) + 1.0,
        )
        scratch = fresh.solve()
        assert edited.objective_value == pytest.approx(scratch.objective_value, rel=1e-6)

"""Unit tests for the columnar (ndarray) ingestion API of the solver layer."""

import math

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.solver.fractional import FractionalProgram
from repro.solver.lp import LinearProgram
from tests.lp_rows import add_row


def _assembled_dense(program):
    matrix, lower, upper = program._assembled()
    return matrix.toarray(), lower, upper


class TestBulkVariables:
    def test_bulk_allocation_matches_scalar_path(self):
        bulk = LinearProgram()
        scalar = LinearProgram()
        upper = np.array([1.0, 0.0, 2.0, math.inf])
        indices = bulk.add_variables_from_arrays(4, lower=0.0, upper=upper)
        for position in range(4):
            scalar.add_variable(lower=0.0, upper=None if math.isinf(upper[position]) else upper[position])
        assert indices.tolist() == [0, 1, 2, 3]
        assert np.array_equal(np.asarray(bulk._lower), np.asarray(scalar._lower))
        assert np.array_equal(np.asarray(bulk._upper), np.asarray(scalar._upper))

    def test_bulk_allocation_recycles_lifo_like_scalar_path(self):
        bulk = LinearProgram()
        scalar = LinearProgram()
        for program in (bulk, scalar):
            variables = [program.add_variable(upper=1.0) for _ in range(5)]
            program.release_variables([variable.index for variable in variables[1:4]])
        bulk_indices = bulk.add_variables_from_arrays(4, lower=0.0, upper=1.0)
        scalar_indices = [scalar.add_variable(upper=1.0).index for _ in range(4)]
        assert bulk_indices.tolist() == scalar_indices

    def test_bulk_bound_updates(self):
        program = LinearProgram()
        indices = program.add_variables_from_arrays(3, lower=0.0, upper=1.0)
        program.set_variable_bounds_from_arrays(indices, 0.0, np.array([0.5, 0.0, 1.0]))
        assert program._upper.tolist() == [0.5, 0.0, 1.0]


class TestBulkConstraints:
    def test_matches_row_by_row_construction(self):
        bulk = LinearProgram()
        dict_path = LinearProgram()
        for program in (bulk, dict_path):
            program.add_variables_from_arrays(3, lower=0.0, upper=1.0)
        bulk.add_constraints_from_arrays(
            rows=np.array([0, 0, 1, 1, 1]),
            cols=np.array([0, 1, 0, 1, 2]),
            coeffs=np.array([1.0, 2.0, 3.0, 0.0, 5.0]),
            lower=-math.inf,
            upper=np.array([4.0, 6.0]),
        )
        add_row(dict_path, {0: 1.0, 1: 2.0}, upper=4.0)
        add_row(dict_path, {0: 3.0, 2: 5.0}, upper=6.0)  # zero coeff dropped
        b_m, b_l, b_u = _assembled_dense(bulk)
        d_m, d_l, d_u = _assembled_dense(dict_path)
        assert np.array_equal(b_m, d_m)
        assert np.array_equal(b_l, d_l)
        assert np.array_equal(b_u, d_u)

    def test_rejects_unsorted_rows(self):
        program = LinearProgram()
        program.add_variables_from_arrays(2, lower=0.0, upper=1.0)
        with pytest.raises(SolverError):
            program.add_constraints_from_arrays(
                np.array([1, 0]), np.array([0, 1]), np.array([1.0, 1.0]), -math.inf, np.ones(2)
            )

    def test_solves_identically(self):
        bulk = LinearProgram()
        variables = bulk.add_variables_from_arrays(2, lower=0.0, upper=1.0)
        bulk.add_constraints_from_arrays(
            np.array([0, 0]), variables, np.array([1.0, 1.0]), -math.inf, np.array([1.0])
        )
        bulk.set_objective_from_arrays(variables, np.array([1.0, 2.0]), maximize=True)
        solution = bulk.solve()
        assert solution.objective_value == pytest.approx(2.0)
        assert solution.values[1] == pytest.approx(1.0)

    def test_term_edits_on_array_backed_rows(self):
        program = LinearProgram()
        v = program.add_variables_from_arrays(3, lower=0.0, upper=1.0)
        handle = int(
            program.add_constraints_from_arrays(
                np.array([0, 0]), v[:2], np.array([1.0, 1.0]), -math.inf, np.array([1.5])
            )[0]
        )
        row = program._constraints[handle]
        # Appending a disjoint term extends the stored arrays.
        program.add_terms_to_constraints_from_arrays([handle], [0], v[2:], np.array([1.0]))
        assert row.indices.tolist() == v.tolist()
        # An overlapping append sums in place.
        program.add_terms_to_constraints_from_arrays([handle], [0], v[:1], np.array([0.5]))
        assert row.indices.tolist() == v.tolist()
        assert row.values.tolist() == [1.5, 1.0, 1.0]
        program.remove_terms_from_constraints([handle], [int(v[1])])
        assert row.indices.tolist() == [int(v[0]), int(v[2])]
        program.set_constraints_coefficients_from_arrays(
            [handle], [0, 0], v[:2], np.array([2.0, 3.0])
        )
        matrix, _, _ = program._assembled()
        assert matrix.toarray()[0].tolist() == [2.0, 3.0, 0.0]

    def test_objective_from_arrays_accumulates_duplicates(self):
        program = LinearProgram()
        v = program.add_variables_from_arrays(2, lower=0.0, upper=1.0)
        program.set_objective_from_arrays(
            np.array([v[0], v[0], v[1]]), np.array([1.0, 2.0, 4.0]), maximize=True
        )
        assert program._objective_dense().tolist() == [3.0, 4.0]


class TestRatioTermsFromArrays:
    def test_preserves_order_and_sums_duplicates(self):
        program = FractionalProgram()
        program.add_variables_from_arrays(4)
        program.set_ratio_objective(
            (np.array([3, 1, 3, 0]), np.array([1.0, 2.0, 0.5, 0.0]), 0.0), ([0], [1.0], 1.0)
        )
        indices, values, constant = program._numerator
        assert (indices.tolist(), values.tolist(), constant) == ([3, 1], [1.5, 2.0], 0.0)


class TestFractionalColumnar:
    def test_bulk_constraints_and_variables_solve(self):
        program = FractionalProgram()
        v = program.add_variables_from_arrays(2, lower=0.0, upper=1.0)
        program.add_constraints_from_arrays(
            np.array([0, 0]), v, np.array([1.0, 1.0]), -math.inf, np.array([1.0])
        )
        program.set_ratio_objective((v, np.array([2.0, 1.0]), 0.0), (v, np.ones(2), 0.0))
        reference = FractionalProgram()
        reference.add_variable(lower=0.0, upper=1.0)
        reference.add_variable(lower=0.0, upper=1.0)
        add_row(reference, {0: 1.0, 1: 1.0}, upper=1.0)
        reference.set_ratio_objective(([0, 1], [2.0, 1.0], 0.0), ([0, 1], [1.0, 1.0], 0.0))
        a = program.solve()
        b = reference.solve()
        assert a.objective_value == pytest.approx(b.objective_value)
        assert np.allclose(a.values, b.values)

    def test_bulk_constraints_reject_out_of_range_rows(self):
        """Both program types share the ordinal-range check (no silent drops)."""
        for program in (FractionalProgram(), LinearProgram()):
            program.add_variables_from_arrays(1, lower=0.0, upper=1.0)
            with pytest.raises(SolverError):
                program.add_constraints_from_arrays(
                    np.array([0, 1, 2]),
                    np.array([0, 0, 0]),
                    np.array([1.0, 1.0, 1.0]),
                    -math.inf,
                    np.array([1.0, 1.0]),  # two bounds, three row ordinals
                )


def _two_variable_program():
    """``max x + y`` s.t. ``x + y <= 1``, ``x <= 1``: optimum 1."""
    program = LinearProgram()
    program.add_variables_from_arrays(2, upper=1.0)
    handles = program.add_constraints_from_arrays([0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0], -math.inf, 1.0)
    program.set_objective_from_arrays([0, 1], [1.0, 1.0], maximize=True)
    return program, handles.tolist()


#: Every way a coefficient enters a program, each handed a NaN or an infinity.
_NON_FINITE_EDITS = {
    "new rows": lambda program, handles, bad: program.add_constraints_from_arrays(
        [0, 0], [0, 1], [bad, 1.0], -math.inf, 1.0
    ),
    "batched rewrite": lambda program, handles, bad: (
        program.set_constraints_coefficients_from_arrays(handles, [0, 0, 1], [0, 1, 0], [1.0, 1.0, bad])
    ),
    "batched terms": lambda program, handles, bad: program.add_terms_to_constraints_from_arrays(
        handles, [0, 1], [1, 1], [bad, 1.0]
    ),
    "one row": lambda program, handles, bad: program.set_constraints_coefficients_from_arrays(
        handles[:1], [0, 0], [0, 1], [bad, 1.0]
    ),
    "column": lambda program, handles, bad: program.set_column_coefficients_from_arrays(
        0, handles, [1.0, bad]
    ),
    "objective": lambda program, handles, bad: program.set_objective_from_arrays(
        [0, 1], [bad, 1.0], maximize=True
    ),
    # Past the small-block fast path: the checks of the general path.
    "large block": lambda program, handles, bad: program.add_constraints_from_arrays(
        np.zeros(66, dtype=np.int64), np.tile([0, 1], 33), np.r_[bad, np.ones(65)], -math.inf, 1.0
    ),
}


class TestNonFiniteCoefficients:
    """NaN and infinite coefficients are refused before they reach the program.

    HiGHS would take them as numbers: ``nan * x + y <= 1`` under ``max x + y``
    "solved" to ``x = y = 1``, and a NaN objective term came back optimal with
    a NaN objective.  Cold (no live model yet) and warm (edits between two
    solves of one live model) alike, the refused edit leaves the program as it
    was, so the next solve answers for the unedited program.
    """

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("edit", sorted(_NON_FINITE_EDITS))
    def test_refused_and_program_unchanged(self, edit, bad, warm):
        program, handles = _two_variable_program()
        if warm:
            assert program.solve().objective_value == pytest.approx(1.0)
        with pytest.raises(SolverError, match="non-finite coefficient"):
            _NON_FINITE_EDITS[edit](program, handles, bad)
        assert program.num_constraints() == 2
        solution = program.solve()
        assert solution.objective_value == pytest.approx(1.0)
        assert solution.values.sum() == pytest.approx(1.0)

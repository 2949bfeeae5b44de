"""The live HiGHS model of a :class:`~repro.solver.lp.LinearProgram` against the program.

After a pure-LP solve, the backend's model must hold exactly the program:
row bounds in the backend's row order, column bounds, costs and the matrix,
as HiGHS' own ``getLp()`` reports them.  Shared by the synthetic edit
sequences of ``tests/solver/test_lp_warm_start.py`` and the policy traffic of
``tests/core/test_lp_assembly.py``; tests import it as ``tests.live_model``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.solver.lp import LinearProgram, _highs_core


def assert_live_model_is_the_program(program: LinearProgram) -> None:
    """HiGHS' ``getLp()`` equals the program, row for row in the backend's row order."""
    backend = program._backend
    assert backend._row_handles.tolist() == list(program._constraints)
    assert backend._row_of == {handle: row for row, handle in enumerate(program._constraints)}
    held = backend._highs.getLp()
    slots = [program._constraints[handle].slot for handle in backend._row_handles]
    np.testing.assert_array_equal(held.row_lower_, program._row_lower_buf[slots])
    np.testing.assert_array_equal(held.row_upper_, program._row_upper_buf[slots])
    np.testing.assert_array_equal(held.col_lower_, program._lower)
    np.testing.assert_array_equal(held.col_upper_, program._upper)
    np.testing.assert_array_equal(held.col_cost_, program._objective_dense())
    a = held.a_matrix_
    layout = sparse.csc_matrix if a.format_ == _highs_core.MatrixFormat.kColwise else sparse.csr_matrix
    matrix = layout((a.value_, a.index_, a.start_), shape=(held.num_row_, held.num_col_))
    np.testing.assert_array_equal(matrix.toarray(), program._assembled()[0].toarray())

"""Optimization substrate: LP/MILP modeling on a live HiGHS model.

A :class:`LinearProgram` is built and edited through one columnar API:
variable blocks, ``(rows, cols, coeffs)`` constraint blocks and
``(indices, values)`` objectives go in as ndarrays, and constraints come
back as integer handles for batched edits.  :class:`FractionalProgram` is a
:class:`LinearProgram` with a ratio objective given as two
``(indices, values, constant)`` term lists, solved by Dinkelbach's method
on the same live model.
"""

from repro.solver.fractional import FractionalProgram
from repro.solver.lp import LinearProgram, Solution, Variable, summed_terms

__all__ = [
    "LinearProgram",
    "Variable",
    "Solution",
    "FractionalProgram",
    "summed_terms",
]

"""Optimization substrate: LP/MILP modeling on a live HiGHS model.

:class:`FractionalProgram` is a :class:`LinearProgram` with a ratio objective,
solved by Dinkelbach's method on the same live model.
"""

from repro.solver.fractional import FractionalProgram
from repro.solver.lp import LinearExpression, LinearProgram, Solution, Variable

__all__ = [
    "LinearProgram",
    "LinearExpression",
    "Variable",
    "Solution",
    "FractionalProgram",
]

"""Optimization substrate: LP/MILP modeling on a live HiGHS model, fractional programs."""

from repro.solver.fractional import FractionalProgram, FractionalSolution
from repro.solver.lp import LinearExpression, LinearProgram, Solution, Variable

__all__ = [
    "LinearProgram",
    "LinearExpression",
    "Variable",
    "Solution",
    "FractionalProgram",
    "FractionalSolution",
]

"""Linear-fractional programming by Dinkelbach's method on one live LP.

The cost policies of Section 4.2 maximize a ratio of linear functions of the
allocation, e.g. total effective throughput divided by total dollar cost.
With ``D > 0`` on the feasible set, ``max N(x) / D(x)`` is the root of
``F(λ) = max N(x) − λ·D(x)`` (Dinkelbach, *Management Science* 13(7), 1967):
solve the LP for the current λ, set ``λ ← N(x) / D(x)`` and repeat until
``F(λ)`` vanishes.  ``F(λ) ≤ ε`` certifies the optimum, since it bounds every
feasible ratio by ``λ + ε / D``.

A :class:`FractionalProgram` *is* a :class:`~repro.solver.lp.LinearProgram`:
rows, variables, tag scopes and every edit go straight to its one live HiGHS
model, and only the objective changes between the Dinkelbach steps, so each
step is a warm re-solve.  λ starts at the ratio of the program's previous
solve, which a policy session re-solving a slightly edited program lands
near: most re-allocations take one or two LPs.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InfeasibleError, SolverError
from repro.solver.lp import LinearProgram, Solution, Variable, summed_terms

__all__ = ["FractionalProgram"]

#: Stop once ``|N(x) − λ·D(x)| <= _TOLERANCE * max(1, |N(x)|)``.
_TOLERANCE = 1e-10
#: λ rises at every step after the first, so this many LPs mean the solver's
#: own tolerances are fighting the stop rule.
_MAX_STEPS = 50

_Terms = Tuple[np.ndarray, np.ndarray, float]
#: A linear function as a caller hands it in: ``(indices, values, constant)``.
_TermsIn = Tuple["Sequence[int] | np.ndarray", "Sequence[float] | np.ndarray", float]


def _canonical(terms: _TermsIn) -> _Terms:
    indices, values, constant = terms
    return (*summed_terms(indices, values), float(constant))


class FractionalProgram(LinearProgram):
    """Maximize ``(numerator) / (denominator)`` over a polytope.

    Variables default to the unit interval (allocations live in ``[0, 1]``)
    and must have finite bounds when the program is solved; the denominator
    must be strictly positive on the feasible set.
    """

    def __init__(self, name: str = "fractional") -> None:
        super().__init__(name)
        self._numerator: Optional[_Terms] = None
        self._denominator: Optional[_Terms] = None
        #: λ: the ratio of the previous solve, where the next one starts.
        self._ratio = 0.0

    def add_variable(
        self, name: Optional[str] = None, lower: float = 0.0, upper: Optional[float] = 1.0,
        integer: bool = False,
    ) -> Variable:
        return super().add_variable(name, lower, upper, integer)

    def add_variables_from_arrays(
        self, count: int, lower: "float | np.ndarray" = 0.0,
        upper: "float | np.ndarray | None" = 1.0, integer: bool = False, name: str = "x",
    ) -> np.ndarray:
        return super().add_variables_from_arrays(count, lower, upper, integer, name)

    def set_ratio_objective(self, numerator: "_TermsIn", denominator: "_TermsIn") -> None:
        """Maximize ``numerator / denominator``, each an ``(indices, values, constant)`` triple.

        The terms are kept in :func:`~repro.solver.lp.summed_terms` form:
        each column once, at its first occurrence, and no zeros.
        """
        self._numerator = _canonical(numerator)
        self._denominator = _canonical(denominator)

    def solve(self, integer_columns: Optional[np.ndarray] = None) -> Solution:
        """Run Dinkelbach's iteration; the solution's objective value is the ratio.

        ``integer_columns`` reaches every step's :meth:`LinearProgram.solve`.
        """
        if self._numerator is None or self._denominator is None:
            raise SolverError(f"{self.name}: ratio objective not set")
        if not (np.isfinite(self._lower).all() and np.isfinite(self._upper).all()):
            raise SolverError(f"{self.name}: fractional programs require finite variable bounds")
        n_indices, n_values, n_constant = self._numerator
        d_indices, d_values, d_constant = self._denominator
        indices = np.concatenate([n_indices, d_indices])
        ratio, best = self._ratio, None
        for _step in range(_MAX_STEPS):
            self.set_objective_from_arrays(
                indices,
                np.concatenate([n_values, -ratio * d_values]),
                maximize=True,
                constant=n_constant - ratio * d_constant,
            )
            solution = super().solve(integer_columns)
            numerator = float(n_values @ solution.values[n_indices]) + n_constant
            denominator = float(d_values @ solution.values[d_indices]) + d_constant
            if denominator <= 0.0:
                # The LP left the region the ratio is defined on: the iterate
                # that set λ is the best point seen.
                if best is None:
                    raise InfeasibleError(
                        f"{self.name}: the denominator is not strictly positive on the feasible set"
                    )
                return best
            best = dataclasses.replace(solution, objective_value=numerator / denominator)
            self._ratio = best.objective_value
            if abs(numerator - ratio * denominator) <= _TOLERANCE * max(1.0, abs(numerator)):
                return best
            ratio = best.objective_value
        raise SolverError(f"{self.name}: Dinkelbach's iteration did not settle in {_MAX_STEPS} LPs")

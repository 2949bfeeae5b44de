"""One-row shorthands over :class:`~repro.solver.lp.LinearProgram`'s columnar API.

Hand-written test programs state their rows and objectives as
``{column index: coefficient}`` maps; these turn one such map into the
arrays the program takes.  Tests import it as ``tests.lp_rows``.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.solver.lp import LinearProgram


def add_row(
    program: LinearProgram,
    terms: Mapping[int, float],
    lower: float = -math.inf,
    upper: float = math.inf,
) -> int:
    """Add ``lower <= sum(terms) <= upper`` as one row; returns its handle."""
    handles = program.add_constraints_from_arrays(
        np.zeros(len(terms), dtype=np.int64),
        np.fromiter(terms.keys(), dtype=np.int64, count=len(terms)),
        np.fromiter(terms.values(), dtype=float, count=len(terms)),
        [lower],  # one row, even with no terms
        [upper],
    )
    return int(handles[0])


def set_objective(
    program: LinearProgram, terms: Mapping[int, float], maximize: bool = True, constant: float = 0.0
) -> None:
    """Set the objective ``sum(terms) + constant`` in the given sense."""
    program.set_objective_from_arrays(
        list(terms.keys()), list(terms.values()), maximize=maximize, constant=constant
    )

"""REP001 fixture: solver-backend status codes that nobody checks."""

import numpy as np


def apply_edits(highs, program, rows, lowers, uppers):
    highs.addRows(len(rows), lowers, uppers)  # expect[REP001]
    highs.changeCoeff(0, 1, 2.5)  # expect[REP001]


def solve(self, program):
    status = self._highs.run()  # expect[REP001]
    return np.asarray(self._highs.getSolution().col_value, dtype=float)


class ProbedBackend:
    highs = make_highs()
    highs.run()  # expect[REP001]

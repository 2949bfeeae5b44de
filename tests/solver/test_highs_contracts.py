"""The HiGHS behaviour the live backend's basis carry rests on, pinned on small LPs.

``_HighsBackend`` carries the basis across a re-solve that deletes rows or
releases columns without reading HiGHS' status lists (see its docstring).
That is sound only while HiGHS (1.12, as SciPy 1.17 vendors it) keeps these
contracts; a SciPy / HiGHS upgrade that breaks one fails here, instead of
silently changing the basis a re-solve installs:

* ``deleteRows`` keeps the statuses of the remaining rows (and of every
  column), and clears ``valid`` only when a non-basic row goes;
* ``getBasicVariables`` is ``kError`` once a ``deleteRows`` cleared
  ``valid``;
* ``addCols`` gives an appended column the default non-basic status for its
  bounds (``kLower`` at a finite lower bound, else ``kUpper`` at a finite
  upper bound, else ``kZero``);
* a column fixed while non-basic at its upper bound keeps ``kUpper``; and
  which bound a fixed non-basic column reads is its history, not its bounds
  and value (a basic column fixed at zero leaves the basis reading
  ``kUpper``), which is why the carry reads the list when a fixed non-basic
  column is not one it released itself.
"""

import numpy as np

from repro.solver.lp import _highs_core

_STATUS = _highs_core.HighsBasisStatus
_OK, _ERROR = _highs_core.HighsStatus.kOk, _highs_core.HighsStatus.kError
_NO_INDEX = np.empty(0, np.int32)


def _solved(costs, rows, upper=1.0):
    """``min costs @ x``, ``0 <= x <= upper``, one ``<=`` row per ``(columns, bound)``, solved."""
    highs = _highs_core._Highs()
    assert highs.setOptionValue("output_flag", False) == _OK
    count = len(costs)
    assert highs.addCols(
        count, np.asarray(costs, float), np.zeros(count), np.full(count, upper),
        0, _NO_INDEX, _NO_INDEX, np.empty(0),
    ) == _OK  # fmt: skip
    for columns, bound in rows:
        status = highs.addRow(
            -np.inf, bound, len(columns), np.asarray(columns, np.int32), np.ones(len(columns))
        )
        assert status == _OK
    assert highs.run() == _OK
    assert highs.getModelStatus() == _highs_core.HighsModelStatus.kOptimal
    return highs


def _three_rows():
    """Three tight rows and one slack (basic) row over three basic columns."""
    return _solved([-1.0, -1.0, -2.0], [([0, 1], 1.5), ([1, 2], 1.0), ([0, 2], 1.2), ([0], 5.0)])


def test_deleting_a_basic_row_keeps_every_status_and_the_basis_valid():
    highs = _three_rows()
    before = highs.getBasis()
    assert before.row_status[3] == _STATUS.kBasic
    assert highs.deleteRows(1, np.array([3], np.int32)) == _OK
    after = highs.getBasis()
    assert after.valid
    assert after.row_status == before.row_status[:3]
    assert after.col_status == before.col_status


def test_deleting_a_non_basic_row_keeps_the_remaining_statuses_and_clears_valid():
    highs = _three_rows()
    before = highs.getBasis()
    assert before.valid and before.row_status[0] != _STATUS.kBasic
    assert highs.getBasicVariables()[0] == _OK
    assert highs.deleteRows(1, np.array([0], np.int32)) == _OK
    after = highs.getBasis()
    assert not after.valid
    assert after.row_status == before.row_status[1:]
    assert after.col_status == before.col_status
    # No basic set to answer with, until a basis is installed again.
    assert highs.getBasicVariables()[0] == _ERROR
    after.alien = True
    assert highs.setBasis(after) == _OK
    assert highs.getBasis().valid


def test_appended_columns_take_the_default_status_for_their_bounds():
    highs = _three_rows()
    lower = np.array([0.0, -np.inf, -np.inf, 2.0])
    upper = np.array([np.inf, 4.0, np.inf, 2.0])
    assert highs.addCols(4, np.zeros(4), lower, upper, 0, _NO_INDEX, _NO_INDEX, np.empty(0)) == _OK
    basis = highs.getBasis()
    assert basis.valid
    assert basis.col_status[3:] == [_STATUS.kLower, _STATUS.kUpper, _STATUS.kZero, _STATUS.kLower]


def test_a_fixed_column_keeps_the_bound_it_was_at():
    # min -x0 - x1 - x2 - x3/2 with x0 + x1 <= 1.5 and x2 + x3 <= 1.2:
    # x1 and x2 non-basic at their upper bound, x0 and x3 basic.
    highs = _solved([-1.0, -1.0, -1.0, -0.5], [([0, 1], 1.5), ([2, 3], 1.2)])
    statuses = highs.getBasis().col_status
    assert statuses == [_STATUS.kBasic, _STATUS.kUpper, _STATUS.kUpper, _STATUS.kBasic]
    assert highs.getSolution().col_value[1:3] == [1.0, 1.0]  # exactly on the bound
    assert highs.changeColsBounds(1, np.array([1], np.int32), np.ones(1), np.ones(1)) == _OK
    assert highs.getBasis().col_status[1] == _STATUS.kUpper

    # Which bound a fixed column reads is its history, not its bounds and
    # value: x0, basic at 0.5 and fixed at 0, leaves the basis reading kUpper.
    assert highs.changeColsBounds(1, np.array([0], np.int32), np.zeros(1), np.zeros(1)) == _OK
    assert highs.changeRowBounds(1, -np.inf, 1.1) == _OK
    assert highs.run() == _OK
    assert highs.getSolution().col_value[0] == 0.0
    assert highs.getBasis().col_status[0] == _STATUS.kUpper

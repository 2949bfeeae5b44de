"""A small linear-programming modeling layer on top of SciPy's HiGHS solvers.

The paper implements its policies with cvxpy; cvxpy is not available in this
offline environment, so this module provides the narrow modeling surface the
policies need, and one way in: every variable block, constraint block, edit
and objective arrives as ndarrays.

* variables — :meth:`LinearProgram.add_variables_from_arrays` allocates a
  block of columns with per-column bounds and returns their indices
  (:meth:`~LinearProgram.add_variable` is its one-column form, returning a
  :class:`Variable` handle);
* constraints — :meth:`~LinearProgram.add_constraints_from_arrays` takes a
  ``(rows, cols, coeffs, lower, upper)`` triplet straight from
  throughput-matrix ndarrays and returns one integer handle per row;
* objectives — :meth:`~LinearProgram.set_objective_from_arrays` takes
  ``(indices, values)`` with a sense and a constant;
  :func:`summed_terms` puts a term list in canonical form (each column once,
  at its first occurrence, duplicates summed in order, no zeros) for a
  caller that needs the terms themselves, such as a ratio objective.

Programs are **mutable**: policy sessions keep one program alive across
allocation recomputations and edit it in place instead of rebuilding it.
The mutation surface is

* batched row edits by handle — :meth:`~LinearProgram.remove_constraints`,
  :meth:`~LinearProgram.add_terms_to_constraints_from_arrays`,
  :meth:`~LinearProgram.remove_terms_from_constraints`,
  :meth:`~LinearProgram.set_constraints_coefficients_from_arrays` and
  :meth:`~LinearProgram.set_column_coefficients_from_arrays` (one column
  across many rows);
* variable deactivation — :meth:`~LinearProgram.release_variables` fixes
  columns to zero and recycles their indices for a later allocation,
  keeping the program from growing without bound under job churn (callers
  must scrub the columns from their constraints first);
* tag scopes — :meth:`~LinearProgram.begin_tag` / :meth:`~LinearProgram.end_tag`
  mark every variable and constraint created inside the scope, and
  :meth:`~LinearProgram.clear_tag` removes them all at once (sessions
  rebuild only the policy objective this way, leaving the validity
  constraints untouched);
* **one row format** — a constraint row is stored as a pair of parallel
  ``(column indices, coefficients)`` ndarrays holding unique columns and no
  zeros, and as nothing else;
* row bounds in arrays — every row owns a *slot* in two float buffers (a
  removed row's slot is recycled), so a bulk right-hand-side sweep
  (:meth:`~LinearProgram.set_constraint_bounds_from_arrays`) is one indexed
  write;
* cached sparse assembly — the CSR constraint matrix is an ``np.concatenate``
  over the stored rows, cached until a structural edit, so a solve after a
  right-hand-side-only edit (a water-filling level sweep, a witness solve of
  the makespan / finish-time-fairness sessions) reuses it outright.

Pure LPs are solved by a **live HiGHS model** (:class:`_HighsBackend`, the
incremental ``scipy.optimize._highspy`` API SciPy has vendored since 1.15):
the first solve passes the full model, every later solve replays only what
changed since the previous one, each through the HiGHS call that keeps the
incumbent basis.  One ordered row log names every row touched in between with
the terms HiGHS holds for it, so each row reaches HiGHS once per solve, with
its final terms: appended, rewritten in place (each coefficient at most
once) or, if really removed, deleted (with the basis carried across); bounds
and costs — of rows and columns alike — are pushed *by difference* against a
mirror of what HiGHS holds, so a sweep that writes a bound back unchanged
costs no HiGHS call.  A warm solve returns an optimal vertex near the previous
one, so where optima tie the vertex depends on the program's solve history;
the objective never does.  A failed edit or solver call raises
:class:`~repro.exceptions.SolverError` and drops the live model, so the next
solve passes the full model again.  Integers go to :func:`scipy.optimize.milp`
(see :meth:`LinearProgram.solve` for the two ways in), which drops the live
model too.

Every call a live model receives is journalled, so a deep copy of a program
carries its model as that call journal and :meth:`LinearProgram.rebuild_model`
gives the copy a model of its own that received the same calls — the same LP,
basis and last solution — which is how a restored scheduler's programs go on
warm exactly where the original's were.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy
from scipy import sparse
from scipy.optimize import LinearConstraint, milp
from scipy.optimize import Bounds as ScipyBounds

from repro.exceptions import InfeasibleError, SolverError

try:
    from scipy.optimize._highspy import _core as _highs_core
except ImportError as error:  # pragma: no cover - needs an older SciPy to reach
    raise ImportError(
        "repro.solver.lp needs SciPy >= 1.15, the first release that ships the "
        f"incremental HiGHS API (scipy.optimize._highspy._core); found SciPy {scipy.__version__}"
    ) from error

__all__ = ["Variable", "LinearProgram", "Solution", "summed_terms"]


def _check_finite(values: np.ndarray, name: str) -> None:
    """Raise unless every coefficient is finite: HiGHS would read a NaN or an infinity as a number."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        raise SolverError(f"{name}: non-finite coefficient {values[~finite][0]!r}")


def _nonzero_terms(
    indices: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    if values.all():
        return indices, values
    nonzero = values != 0.0
    return indices[nonzero], values[nonzero]


def _has_duplicates(keys: np.ndarray) -> bool:
    """Whether ``keys`` repeats a value: a set for an edit's few terms, one sort for a block."""
    if len(keys) <= 64:
        return len(set(keys.tolist())) < len(keys)
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


def _coalesce(keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(first positions, summed values)`` of each distinct key, in first-occurrence order."""
    _unique, first_pos, inverse = np.unique(keys, return_index=True, return_inverse=True)
    summed = np.zeros(len(first_pos))
    np.add.at(summed, inverse, values)
    order = np.argsort(first_pos, kind="stable")
    return first_pos[order], summed[order]


def summed_terms(
    indices: "Sequence[int] | np.ndarray", values: "Sequence[float] | np.ndarray"
) -> Tuple[np.ndarray, np.ndarray]:
    """A parallel ``(indices, values)`` term list in canonical form.

    Zero terms are dropped; then each index is kept once, at its first
    occurrence, with its values summed in order (starting from 0.0), and a
    sum of zero is dropped too.  A list with no zero and no repeated index
    comes back as it is.  A non-finite value raises :class:`SolverError`.
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    _check_finite(values, "terms")
    indices, values = _nonzero_terms(indices, values)
    if len(indices) > 1 and _has_duplicates(indices):
        first_pos, summed = _coalesce(indices, values)
        return _nonzero_terms(indices[first_pos], summed)
    return indices, values


#: A rewritten row: ``(HiGHS row, (old indices, old values), (new indices, new values))``.
_Rewrite = Tuple[int, Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _coefficient_diff(
    rewrites: Iterable[_Rewrite], num_cols: int
) -> Tuple[List[int], List[int], List[float]]:
    """The ``(rows, columns, values)`` whose coefficients differ between each rewrite's sides.

    A term absent on one side counts as 0 there; rows come in the order
    given, each row's columns ascending.  A row whose index array was kept
    (a column edit) diffs its values in place, or not at all if its values
    array was kept too; any other row is compared as two dense rows of
    ``num_cols``.  A sparse pass over every row of a sync at once (one
    ``np.unique`` over (row, column) keys) gave the same calls but took about
    three times as long at the sizes a sync sees (a few rows of ~66 terms).
    One compare over every kept row at once gained nothing on a scaling sync
    of ~50 such rows and cost ~24 µs on a water-filling level sync of a few.
    """
    rows: List[int] = []
    columns: List[int] = []
    values: List[float] = []
    for row, (old_indices, old_values), (indices, new_values) in rewrites:
        if indices is old_indices:
            if new_values is old_values:
                continue
            (moved,) = (new_values != old_values).nonzero()
            if len(moved) > 1:
                moved = moved[np.argsort(old_indices[moved])]
            moved_columns, moved_values = old_indices[moved], new_values[moved]
        else:
            before = np.zeros(num_cols)
            before[old_indices] = old_values
            after = np.zeros(num_cols)
            after[indices] = new_values
            (moved_columns,) = (before != after).nonzero()
            moved_values = after[moved_columns]
        rows.extend(itertools.repeat(row, len(moved_columns)))
        columns.extend(moved_columns.tolist())
        values.extend(moved_values.tolist())
    return rows, columns, values


@dataclass(frozen=True)
class Variable:
    """Handle to a single decision variable inside a :class:`LinearProgram`."""

    index: int
    name: str


@dataclass
class Solution:
    """Result of solving a :class:`LinearProgram`."""

    values: np.ndarray
    objective_value: float
    status: str
    #: Simplex iterations HiGHS spent on this solve (0 for a ``milp`` solve).
    simplex_iterations: int = 0
    #: Whether HiGHS held a valid basis on entry to ``run()``.
    warm_started: bool = False
    #: Reads this solve's row duals off the live model (``None``: a ``milp`` solve).
    _duals_of: Optional[Callable[["Sequence[int] | np.ndarray"], np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    def row_duals(self, handles: "Sequence[int] | np.ndarray") -> np.ndarray:
        """Dual values of the constraints behind ``handles``, read on request.

        Nothing is copied out of HiGHS until this is called, and it must be
        called before the program is solved again (:class:`SolverError`
        otherwise: the live model then holds another solve's duals).  Edits
        made since the solve do not matter; a handle that was not a row of
        that solve raises.

        Sign convention, HiGHS' own and the same for both objective senses:
        a row's dual is the rate at which the optimal objective *as stated*
        changes per unit increase of the row's binding bound, and 0 for a row
        that is not binding.  A binding ``>=`` row therefore has a dual
        ``>= 0`` when minimizing and ``<= 0`` when maximizing (raising the
        bound shrinks the feasible set), a binding ``<=`` row the opposite.
        """
        if self._duals_of is None:
            raise SolverError("row duals exist for pure-LP solves only (this was a milp solve)")
        return self._duals_of(handles)


class _Constraint:
    """One stored row: parallel ``(indices, values)`` arrays — the only row format —
    plus the slot of its two-sided bounds in the program's row-bound buffers
    (:meth:`LinearProgram._reserve_rows`).

    The arrays hold unique column indices and no zeros (see
    :meth:`LinearProgram._row_block`).  Edits replace the arrays, never mutate them in
    place, so slices handed in by the columnar API can be shared safely.
    """

    __slots__ = ("indices", "values", "slot")

    def __init__(self, indices: np.ndarray, values: np.ndarray, slot: int) -> None:
        self.indices = indices
        self.values = values
        self.slot = slot

    def set_coefficient(self, column: int, value: float) -> float:
        """Set one column's coefficient; returns the coefficient it replaces.

        A present column keeps its position, a new one is appended, and a
        zero ``value`` drops the term (stored rows hold no zeros).
        """
        if len(self.indices) and self.indices[-1] == column:
            slot = len(self.indices) - 1  # where a column edited before was appended
        else:
            slots = np.flatnonzero(self.indices == column)
            if len(slots) == 0:
                if value != 0.0:
                    self.indices = np.append(self.indices, column)
                    self.values = np.append(self.values, value)
                return 0.0
            slot = slots[0]
        previous = float(self.values[slot])
        if value == 0.0:
            self.indices = np.delete(self.indices, slot)
            self.values = np.delete(self.values, slot)
        elif value != previous:
            values = self.values.copy()
            values[slot] = value
            self.values = values
        return previous


def _ensure_highs_ok(status: object, action: str, name: str) -> None:
    """Raise when a HiGHS call reports a hard error.

    ``kWarning`` covers benign conditions (e.g. sub-tolerance coefficients
    being dropped); only ``kError`` means the edit did not take, at which
    point the live model has diverged from the program and every subsequent
    warm-started solve would answer for the wrong LP.
    """
    if status == _highs_core.HighsStatus.kError:
        raise SolverError(f"{name}: HiGHS {action} failed")


_DUAL_SIMPLEX = int(_highs_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_PRIMAL_SIMPLEX = int(_highs_core.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)


def _sense(maximize: bool) -> object:
    return _highs_core.ObjSense.kMaximize if maximize else _highs_core.ObjSense.kMinimize


#: HiGHS basis statuses by code (``int(status)``): a code array indexes a status list out.
_BASIS_STATUSES = np.array([_highs_core.HighsBasisStatus(code) for code in range(5)], dtype=object)
_LOWER, _BASIC, _UPPER, _ZERO = (
    int(getattr(_highs_core.HighsBasisStatus, name))
    for name in ("kLower", "kBasic", "kUpper", "kZero")
)


def _nonbasic_codes(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The non-basic status codes HiGHS gives columns with these bounds.

    At the finite lower bound, else at the finite upper bound, else free (zero).
    """
    return np.where(lower > -math.inf, _LOWER, np.where(upper < math.inf, _UPPER, _ZERO))


def _nonbasic_code(lower: float, upper: float) -> int:
    """:func:`_nonbasic_codes` for one column: a handful of released ones costs no array."""
    return _LOWER if lower > -math.inf else _UPPER if upper < math.inf else _ZERO


def _highs_lp(
    num_col: int,
    cost: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    maximize: bool,
    start: np.ndarray,
    index: np.ndarray,
    value: np.ndarray,
) -> object:
    """The ``HighsLp`` of a row-wise model: what ``passModel`` takes."""
    lp = _highs_core.HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = len(row_lower)
    lp.col_cost_ = cost
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.sense_ = _sense(maximize)
    a = _highs_core.HighsSparseMatrix()
    a.format_ = _highs_core.MatrixFormat.kRowwise
    a.num_col_ = num_col
    a.num_row_ = len(row_lower)
    a.start_ = start
    a.index_ = index
    a.value_ = value
    lp.a_matrix_ = a
    return lp


_NO_INDEX = np.empty(0, np.int32)
_NO_VALUE = np.empty(0)


def _make_call(highs: Any, entry: Tuple[Any, ...], name: str) -> object:
    """Send journal entry ``(action, *arguments)`` to ``highs``; an error raises.

    The one place a journalled call is made, live and on a replay alike.
    Entries keep their arguments compact — no counts, no empty arrays, the
    sense as a bool, a sync's ``changeCoeff`` / ``changeRowBounds`` loop as
    parallel arrays — and this expands them.  ``setBasis`` is a hint: its
    status is returned, for the caller to count a rejection.
    """
    action, arguments = entry[0], entry[1:]
    if action == "run":
        _ensure_highs_ok(highs.run(), action, name)
    elif action in ("changeCoeff", "changeRowBounds"):
        # The statuses are checked as they come: the first error stops the loop.
        calls = map(getattr(highs, action), *(column.tolist() for column in arguments))
        if _highs_core.HighsStatus.kError in calls:
            raise SolverError(f"{name}: HiGHS {action} failed")
    elif action in ("changeColsBounds", "changeColsCost"):
        columns = arguments[0]
        _ensure_highs_ok(getattr(highs, action)(len(columns), *arguments), action, name)
    elif action == "addRows":
        lower, upper, starts, index, value = arguments
        _ensure_highs_ok(
            highs.addRows(len(lower), lower, upper, len(index), starts, index, value),
            action,
            name,
        )
    elif action == "addCols":
        lower, upper = arguments
        count = len(lower)
        _ensure_highs_ok(
            highs.addCols(count, np.zeros(count), lower, upper, 0, _NO_INDEX, _NO_INDEX, _NO_VALUE),
            action,
            name,
        )
    elif action == "deleteRows":
        (rows,) = arguments
        _ensure_highs_ok(highs.deleteRows(len(rows), rows), action, name)
    elif action == "setBasis":
        return highs.setBasis(*arguments)
    elif action == "changeObjectiveSense":
        _ensure_highs_ok(highs.changeObjectiveSense(_sense(*arguments)), action, name)
    elif action == "passModel":
        _ensure_highs_ok(highs.passModel(_highs_lp(*arguments)), action, name)
    else:
        _ensure_highs_ok(highs.setOptionValue(*arguments), action, name)
    return None


#: Row blocks up to this many entries (and rows) are checked without numpy.
_SMALL_BLOCK = 64

#: Entries every model receives in the same form, shared by every journal.
_OPTIONS = (("setOptionValue", "output_flag", False), ("setOptionValue", "random_seed", 0))
_STRATEGY = {
    strategy: ("setOptionValue", "simplex_strategy", strategy)
    for strategy in (_DUAL_SIMPLEX, _PRIMAL_SIMPLEX)
}
_RUN = ("run",)


class _HighsBackend:
    """A live HiGHS instance mirroring one :class:`LinearProgram`.

    Keeps a ``_Highs`` model alive and replays only the *edits* made to the
    owning program since the previous solve, choosing for each the HiGHS call
    that keeps the incumbent basis (checked on HiGHS 1.12.0, the build SciPy
    1.17.1 vendors):

    * ``addCols``, ``addRows``, ``changeCoeff``, ``changeRowBounds``,
      ``changeColsBounds``, ``changeColsCost`` and ``changeObjectiveSense``
      leave ``getBasis().valid`` set — HiGHS itself makes a new column
      non-basic at a finite bound and a new row basic — so new rows are
      appended, rewritten rows are edited **in place**, one ``changeCoeff``
      per coefficient that differs from the terms HiGHS holds (logged at the
      row's first edit, whatever the edit), and bounds and costs are pushed
      by difference;
    * ``deleteRows`` clears the basis unless every deleted row was basic, so
      it is called only for constraints that were really removed, and the
      basis is carried across it: re-installed with ``setBasis`` as an
      *alien* basis — one HiGHS checks and repairs (a deleted tight row
      leaves one basic variable too many) — without the deleted rows and
      with every released column non-basic.

    **The basis carry marshals no status list.**  A status crosses pybind as
    an enum object at about half a microsecond each, so the carry rests on
    two contracts of HiGHS 1.12 instead (pinned by
    ``tests/solver/test_highs_contracts.py``):

    * ``deleteRows`` keeps the statuses of the remaining rows and of every
      column and clears only ``valid``: the basis read *after* the deletion
      holds the rows' statuses already, and ``row_status`` is never read or
      written;
    * ``addCols`` gives an appended column the default non-basic status for
      its bounds.

    When columns were released, ``col_status`` must be written (the released
    ones become non-basic), and it is written from codes derived without
    reading it: the basic columns from ``getBasicVariables()``, the other
    columns HiGHS held at the last run from that run's values against the
    column mirrors (non-basic at the upper bound iff its value equals an
    upper bound that differs from the lower), the appended columns and the
    released ones at the default for their bounds.  ``getBasicVariables``
    is read at the start of the sync, before any edit: after ``addCols`` it
    refactorizes, and after ``deleteRows`` it fails.  A fixed non-basic
    column the program did not release (it is not on the free list) is
    ambiguous: HiGHS keeps whichever bound it sat at, which is its history,
    not its bounds and value.  A fixed column off the free list is tested
    for before ``getBasicVariables`` is asked, so, basic or not, it sends the
    carry to the list at no extra cost.  There, and whenever the last run
    was cold or not optimal, the model holds no coefficient or
    ``getBasicVariables`` is not ``kOk`` (see :meth:`_derived_col_status`),
    the carry reads ``col_status`` as a list (:meth:`_read_col_status`).
    Either way the installed basis is the one the list would give
    (``tests/core/test_basis_carry.py`` keeps that construction as the
    oracle).

    Which record feeds which call: the program's row log maps each handle
    touched since the last sync to the terms HiGHS holds for it, or to
    ``None`` for a row HiGHS never held.  Read with ``_row_of`` and the
    program's rows, it is the whole sync: a handle HiGHS holds that left the
    program goes to ``deleteRows``, a ``None`` one still in the program to
    ``addRows`` (in creation order), and every other one HiGHS still holds to
    one ``changeCoeff`` entry (rows in first-edit order, each coefficient at
    most once).  Two records sit beside the log: the released columns (their
    statuses in the re-installed basis) and a flag for "a row bound was
    written" (the simplex choice below).  Bounds are then diffed against
    mirrors of what HiGHS holds: ``_row_lower`` /
    ``_row_upper`` in HiGHS row order, gathered from the program's bound
    buffers through ``_row_slots`` (``changeRowBounds``, when the flag is set),
    and ``_col_lower`` / ``_col_upper`` / ``_col_cost`` (``changeColsBounds``
    / ``changeColsCost``, every sync).  ``_row_handles`` (an array) maps
    HiGHS rows to handles and ``_row_of`` (a dict) handles to HiGHS rows; both
    hold only the rows HiGHS holds, and a deletion renumbers the rows behind
    the first deleted one.

    ``setBasis`` is a hint.  If HiGHS rejects it the solve simply starts
    without a basis; the rejection is counted in
    :attr:`LinearProgram.basis_rejections` and never raised.

    A basis is only worth what the simplex started from it can use.  An edit
    that only deleted rows hands HiGHS a basis that is close to primal
    feasible and far from dual feasible, so that solve runs the primal
    simplex; every other solve runs the dual (HiGHS' default), which is what
    new rows and moved right-hand sides want.  Measured on LAS with space
    sharing at 128 jobs (the Figure 12 churn series): a departure costs the
    dual simplex up to 9 400 pivots from the carried basis — more than a cold
    solve — and the primal simplex 2 to 39.

    A solve that starts from a basis stops at an optimal vertex *near the
    previous one*; a cold solve stops at HiGHS' canonical vertex.  Where the
    optimum is not unique (LAS, makespan, finish-time fairness and total
    throughput all have ties) the two differ in the allocation, never in the
    objective: the vertex a live program returns is a function of its solve
    history.

    **The call journal.**  Every state-changing call the model receives is
    appended to ``_journal`` as ``(method name, *arguments)`` (see
    :func:`_make_call`): the options, the full model, each edit, each
    ``setBasis`` and each ``run``.  A sync's ``changeCoeff`` loop and its
    ``changeRowBounds`` loop are one entry each, in parallel arrays.  The
    journal owns its arrays: each is made for its entry (a gather, a cast, a
    copy of a slice) and written by nobody; only a full model's are shared,
    with the mirrors, and those are read-only.  A deep copy of the backend
    copies the mirrors and the journal but no model; :meth:`rebuild` gives
    it a fresh ``_Highs`` that receives the journal's calls in order, which
    leaves it holding the original's LP, basis and last solution.
    """

    def __init__(self) -> None:
        self._highs = _highs_core._Highs()
        #: Every state-changing call made on ``_highs``, in order (entries are never changed).
        self._journal: List[Tuple[object, ...]] = []
        for entry in _OPTIONS:
            self._call(entry, "_HighsBackend")
        #: HiGHS row -> constraint handle / program bound slot (replaced, never
        #: written in place), and handle -> HiGHS row.
        self._row_handles = np.empty(0, dtype=np.int64)
        self._row_slots = np.empty(0, dtype=np.int64)
        self._row_of: Dict[int, int] = {}
        #: Row bounds (by HiGHS row), column bounds, costs and sense as HiGHS
        #: last saw them: a later sync pushes only what differs from the mirror.
        #: The arrays are replaced, never written in place.
        self._row_lower = np.empty(0)
        self._row_upper = np.empty(0)
        self._col_lower = np.empty(0)
        self._col_upper = np.empty(0)
        self._col_cost = np.empty(0)
        self._maximize = False
        self._synced = False
        #: Solves started on this model; a :class:`Solution` may read its row
        #: duals only while its own solve is still the latest.
        self._solves = 0
        #: The column values of the last run if it was warm and optimal, for
        #: the next carry (:meth:`_derived_col_status`); replaced, never written.
        self._warm_values: Optional[np.ndarray] = None

    def __deepcopy__(self, memo: Dict[int, object]) -> "_HighsBackend":
        """The mirrors and the journal, without a model: :meth:`rebuild` makes one.

        The journal's entries and the mirror arrays are shared: neither is
        ever written in place.
        """
        clone = _HighsBackend.__new__(_HighsBackend)
        vars(clone).update(
            vars(self), _highs=None, _journal=list(self._journal), _row_of=dict(self._row_of)
        )
        return clone

    def rebuild(self) -> None:
        """A fresh ``_Highs`` that receives every journalled call, in order."""
        self._highs = highs = _highs_core._Highs()
        for entry in self._journal:
            _make_call(highs, entry, "_HighsBackend.rebuild")

    def _call(self, entry: Tuple[object, ...], name: str) -> object:
        """Journal ``entry`` and make its call on the model (see :func:`_make_call`)."""
        self._journal.append(entry)
        return _make_call(self._highs, entry, name)

    # -- synchronisation -------------------------------------------------------
    def _pass_full_model(self, program: "LinearProgram") -> None:
        matrix, row_lower, row_upper = program._assembled()
        model = (
            program._objective_dense(),
            np.array(program._lower),
            np.array(program._upper),
            row_lower,
            row_upper,
            matrix.indptr.astype(np.int32),
            matrix.indices.astype(np.int32),
            matrix.data.astype(float),
        )
        for array in model:  # the journal shares these with the mirrors
            array.setflags(write=False)
        self._col_cost, self._col_lower, self._col_upper = model[:3]
        self._row_lower, self._row_upper = model[3:5]
        self._maximize = program._maximize
        self._call(
            ("passModel", program.num_variables(), *model[:5], program._maximize, *model[5:]),
            program.name,
        )
        constraints = program._constraints
        # The assembly's row order.
        self._row_handles = np.fromiter(constraints, np.int64, len(constraints))
        self._row_slots = program._cached_slots
        self._row_of = dict(zip(self._row_handles.tolist(), range(len(constraints))))
        self._synced = True

    def _derived_col_status(self, program: "LinearProgram") -> Optional[List[object]]:
        """The column statuses the carry installs, derived without reading HiGHS' list.

        Called before the sync edits the model (see the class docstring);
        ``None`` when they cannot be derived: the last run was cold (it may
        have been presolved, leaving the simplex with another LP) or not
        optimal, the constraint matrix is empty (HiGHS 1.12 then answers
        ``getBasicVariables`` from memory it never set up, and crashes),
        ``getBasicVariables`` is not ``kOk``, or a fixed column is not on the
        free list.  That last test comes first and does not ask whether the
        column is basic (only a non-basic one is ambiguous): it costs no call,
        and where it fails the list read is all the carry pays for.
        """
        highs, value = self._highs, self._warm_values
        if value is None or not highs.getNumNz():
            return None
        # The columns HiGHS held at its last run, with the bounds it held then.
        lower, upper = self._col_lower, self._col_upper
        held = len(lower)
        fixed = lower == upper
        # Few columns are fixed (released ones, mostly): a set test, not a mask per column.
        if not set(np.flatnonzero(fixed).tolist()).issubset(program._free_variables):
            return None
        status, basic = highs.getBasicVariables()
        if status != _highs_core.HighsStatus.kOk:
            return None
        codes = _nonbasic_codes(lower, upper)
        codes[(value == upper) & ~fixed] = _UPPER
        if held < program.num_variables():  # appended by this sync's addCols
            appended = _nonbasic_codes(program._lower[held:], program._upper[held:])
            codes = np.concatenate((codes, appended))
        codes[basic[basic >= 0]] = _BASIC  # rows are numbered from -1 down
        lower, upper = program._lower_buf, program._upper_buf
        for column in program._hs_released:
            codes[column] = _nonbasic_code(lower[column], upper[column])
        return _BASIS_STATUSES[codes].tolist()

    def _read_col_status(self, program: "LinearProgram") -> List[object]:
        """The column statuses the carry installs, read from HiGHS as a list of enums.

        The fallback of :meth:`_derived_col_status`: HiGHS' own statuses,
        each released column's replaced by the default for its bounds.
        """
        col_status = self._highs.getBasis().col_status
        lower, upper = program._lower_buf, program._upper_buf
        for column in program._hs_released:
            col_status[column] = _BASIS_STATUSES[_nonbasic_code(lower[column], upper[column])]
        return col_status

    def _drop_rows_and_columns(
        self, program: "LinearProgram", rows: np.ndarray, col_status: Optional[List[object]]
    ) -> None:
        """Delete really-removed ``rows`` (sorted) and retire released columns, keeping the basis.

        The basis is re-installed afterwards without the deleted rows and with
        every released column non-basic: a released column is empty (its
        owner scrubbed it from every row) and may since have been handed to a
        new variable, so its old status means nothing.  ``col_status`` is
        :meth:`_derived_col_status`' answer, taken before the sync's first
        edit; without it, the statuses are read (:meth:`_read_col_status`).
        """
        highs = self._highs
        if col_status is None:
            valid = highs.getBasis().valid
            if valid and program._hs_released:
                col_status = self._read_col_status(program)
        else:
            valid = True  # getBasicVariables answers only for a valid basis
        if len(rows):
            self._call(("deleteRows", rows.astype(np.int32)), program.name)
            # Rows before the first deleted one keep their place: renumber the rest.
            row_of = self._row_of
            for handle in self._row_handles[rows].tolist():
                del row_of[handle]
            keep = np.ones(len(self._row_handles), dtype=bool)
            keep[rows] = False
            self._row_handles = handles = self._row_handles[keep]
            first = int(rows[0])
            row_of.update(zip(handles[first:].tolist(), range(first, len(handles))))
            self._row_slots = self._row_slots[keep]
            self._row_lower, self._row_upper = self._row_lower[keep], self._row_upper[keep]
        if not valid:
            return
        # HiGHS kept the remaining rows' statuses (and every column's).
        basis = highs.getBasis()
        if col_status is not None:
            basis.col_status = col_status
        # Alien: HiGHS checks the basis and repairs a count mismatch (a deleted
        # tight row leaves one basic variable too many) or a singularity.
        basis.alien = True
        # The journal keeps HiGHS' own basis object: one byte per status.
        if self._call(("setBasis", basis), program.name) == _highs_core.HighsStatus.kError:
            program.basis_rejections += 1

    def _apply_edits(self, program: "LinearProgram") -> None:
        name = program.name
        # Before any edit (see the class docstring).
        col_status = self._derived_col_status(program) if program._hs_released else None
        lower, upper = np.array(program._lower), np.array(program._upper)
        cost = program._objective_dense()
        num_cols = len(cost)
        extra = num_cols - len(self._col_cost)
        if extra > 0:
            new_lower, new_upper = lower[-extra:].copy(), upper[-extra:].copy()
            self._call(("addCols", new_lower, new_upper), name)
            self._col_lower = np.concatenate([self._col_lower, new_lower])
            self._col_upper = np.concatenate([self._col_upper, new_upper])
            self._col_cost = np.concatenate([self._col_cost, np.zeros(extra)])

        # The row log is the whole sync (see LinearProgram.__init__).  A row
        # HiGHS never held (None) is added if the program still has it; a row
        # HiGHS holds (every other one) is deleted if the program dropped it,
        # else rewritten in place: one changeCoeff per coefficient that differs
        # from the terms HiGHS holds, rows in first-edit order, in one entry.
        row_of, constraints = self._row_of, program._constraints
        add: List[int] = []
        gone: List[int] = []
        edited: List[Tuple[int, Tuple[np.ndarray, np.ndarray], _Constraint]] = []
        for handle, held in program._hs_rows.items():
            row = constraints.get(handle)
            if held is None:
                if row is not None:
                    add.append(handle)
            elif row is None:
                gone.append(row_of[handle])
            else:
                edited.append((handle, held, row))
        removed = np.array(sorted(gone), np.int64)
        if gone or program._hs_released:
            self._drop_rows_and_columns(program, removed, col_status)
        rewrites = [
            (row_of[handle], held, (row.indices, row.values)) for handle, held, row in edited
        ]
        rows, columns, values = _coefficient_diff(rewrites, num_cols)
        if rows:
            self._call(("changeCoeff", np.array(rows), np.array(columns), np.array(values)), name)

        # Which simplex: an edit that only deleted rows leaves the incumbent
        # point feasible and takes the deleted rows' multipliers out of the
        # duals — the primal simplex's case.  Any other edit (new rows, moved
        # right-hand sides) costs primal feasibility at most: the dual's.  A
        # bound *written* counts even when it comes back unchanged, which the
        # bound diff cannot tell (two deletion-only syncs of a hierarchical
        # drain write bounds and move none), so the bit stays its own record.
        only_deleted = bool(gone) and not add and not program._hs_bounds_dirty
        self._call(_STRATEGY[_PRIMAL_SIMPLEX if only_deleted else _DUAL_SIMPLEX], name)
        if add:
            added = [constraints[h] for h in add]
            counts = np.fromiter((len(c.indices) for c in added), np.int64, count=len(add))
            starts = np.zeros(len(add) + 1, np.int64)
            np.cumsum(counts, out=starts[1:])
            slots = np.fromiter((c.slot for c in added), np.int64, count=len(add))
            lowers, uppers = program._row_lower_buf[slots], program._row_upper_buf[slots]
            # An unchecked rejection here would silently desynchronise the
            # HiGHS model from the program (constraints that exist
            # Python-side but not solver-side) — the PR 6 bug.
            self._call(
                (
                    "addRows",
                    lowers,
                    uppers,
                    starts[:-1].astype(np.int32),
                    np.concatenate([c.indices for c in added]).astype(np.int32),
                    np.concatenate([c.values for c in added]).astype(float),
                ),
                name,
            )
            base = len(self._row_handles)
            self._row_handles = np.concatenate([self._row_handles, np.array(add, np.int64)])
            self._row_of.update(zip(add, range(base, base + len(add))))
            self._row_slots = np.concatenate([self._row_slots, slots])
            self._row_lower = np.concatenate([self._row_lower, lowers])
            self._row_upper = np.concatenate([self._row_upper, uppers])

        # Rows and columns are pushed by difference against what HiGHS last
        # saw: bounds are written in bulk sweeps that mostly re-send what is
        # there (rows) or through numpy views all over the program (columns),
        # so the mirror is the one record that is both cheap and complete.
        if program._hs_bounds_dirty:
            row_lower = program._row_lower_buf[self._row_slots]
            row_upper = program._row_upper_buf[self._row_slots]
            (moved,) = ((row_lower != self._row_lower) | (row_upper != self._row_upper)).nonzero()
            if len(moved):
                self._call(("changeRowBounds", moved, row_lower[moved], row_upper[moved]), name)
            self._row_lower, self._row_upper = row_lower, row_upper
        (moved,) = ((lower != self._col_lower) | (upper != self._col_upper)).nonzero()
        if len(moved):
            self._call(
                ("changeColsBounds", moved.astype(np.int32), lower[moved], upper[moved]), name
            )
            self._col_lower, self._col_upper = lower, upper
        (moved,) = (cost != self._col_cost).nonzero()
        if len(moved):
            self._call(("changeColsCost", moved.astype(np.int32), cost[moved]), name)
            self._col_cost = cost
        if program._maximize != self._maximize:
            self._call(("changeObjectiveSense", program._maximize), name)
            self._maximize = program._maximize

    # -- solving ----------------------------------------------------------------
    def _row_duals(
        self, solve: int, name: str, handles: "Sequence[int] | np.ndarray"
    ) -> np.ndarray:
        """Duals of solve number ``solve``, by constraint handle (see :meth:`Solution.row_duals`)."""
        if solve != self._solves:
            raise SolverError(
                f"{name}: row duals must be read before the program is solved again"
            )
        duals = np.asarray(self._highs.getSolution().row_dual, dtype=float)
        try:
            rows = [self._row_of[handle] for handle in np.asarray(handles).tolist()]
        except KeyError as error:
            raise SolverError(
                f"{name}: constraint handle {error.args[0]} was not a row of that solve"
            ) from None
        return duals[rows]

    def solve(self, program: "LinearProgram") -> Solution:
        self._solves += 1
        if not self._synced:
            self._pass_full_model(program)
        else:
            self._apply_edits(program)
        program._clear_log()
        warm_started = bool(self._highs.getBasis().valid)
        self._warm_values = None
        self._call(_RUN, program.name)
        status = self._highs.getModelStatus()
        if status != _highs_core.HighsModelStatus.kOptimal:
            message = f"{program.name}: HiGHS status {status}"
            if status in (
                _highs_core.HighsModelStatus.kInfeasible,
                _highs_core.HighsModelStatus.kUnboundedOrInfeasible,
            ):
                raise InfeasibleError(message)
            raise SolverError(message)
        # Two scalar reads: ``getInfo()`` would copy every info field.
        _status, iterations = self._highs.getInfoValue("simplex_iteration_count")
        values = np.asarray(self._highs.getSolution().col_value, dtype=float)
        if warm_started:
            self._warm_values = values.copy()  # the caller owns ``values``
        return Solution(
            values=values,
            objective_value=self._highs.getObjectiveValue() + program._objective_constant,
            status="optimal",
            simplex_iterations=int(iterations),
            warm_started=warm_started,
            _duals_of=functools.partial(self._row_duals, self._solves, program.name),
        )


class LinearProgram:
    """Incrementally built *and editable* LP / MILP solved with HiGHS."""

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        # Variable storage is numpy-backed with amortized growth so bulk
        # allocation (add_variables_from_arrays) is a vectorized assignment.
        self._num_vars = 0
        self._lower_buf = np.empty(0)
        self._upper_buf = np.empty(0)
        self._integer_buf = np.empty(0, dtype=bool)
        self._names: List[str] = []
        self._constraints: Dict[int, _Constraint] = {}
        self._next_constraint_id = 0
        # Row bounds live in two buffers indexed by each row's slot; a removed
        # row's slot is recycled, so the buffers never outgrow the most rows
        # the program held at once (handles, by contrast, only ever grow).
        self._num_slots = 0
        self._row_lower_buf = np.empty(0)
        self._row_upper_buf = np.empty(0)
        self._free_slots: List[int] = []
        # Objective coefficients, stored densely (index -> cost); kept at least
        # as long as the variable vector, padded with zeros on access.
        self._objective_vec: np.ndarray = np.zeros(0)
        self._objective_constant = 0.0
        self._maximize = False
        # Mutation machinery: recycled variable indices, tag scopes, and the
        # structure revision the cached sparse assembly is keyed on.
        self._free_variables: List[int] = []
        self._active_tag: Optional[str] = None
        self._tagged_constraints: Dict[str, List[int]] = {}
        self._tagged_variables: Dict[str, List[int]] = {}
        self._structure_revision = 0
        self._cached_key: Optional[Tuple[int, int]] = None
        self._cached_matrix: Optional[sparse.csr_matrix] = None
        self._cached_slots = np.empty(0, dtype=np.int64)
        # What the live HiGHS backend syncs from (warm starts).  The row log
        # maps every handle touched since the last sync, in first-touch order,
        # to the (indices, values) HiGHS holds for that row, or to None for a
        # row HiGHS never held; an edit only does setdefault, so a row's first
        # touch fixes its entry.  Beside it, two records no row entry can
        # carry: the released columns (their statuses in the carried basis)
        # and whether a row bound was *written*, moved or not (the bounds are
        # diffed; the bit picks the simplex, see _HighsBackend._apply_edits).
        self._backend: Optional[_HighsBackend] = None
        self._hs_rows: Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]] = {}
        self._hs_bounds_dirty = False
        self._hs_released: Set[int] = set()
        #: Times HiGHS refused the basis carried across a row deletion (the
        #: solve then started cold; see :class:`_HighsBackend`).
        self.basis_rejections = 0

    def __deepcopy__(self, memo: Dict[int, object]) -> "LinearProgram":
        """An independent copy of the program; a live model is copied without HiGHS.

        The copy's backend holds the mirrors and the call journal but no
        ``_Highs`` until :meth:`rebuild_model`.  Stored rows are copied as new
        row objects over the same arrays, which edits replace and never write;
        so is the cached assembly.
        """
        clone = copy.copy(self)
        memo[id(self)] = clone
        state = vars(clone)
        for name, value in vars(self).items():
            if name == "_constraints":
                state[name] = {
                    handle: _Constraint(row.indices, row.values, row.slot)
                    for handle, row in value.items()
                }
            elif name == "_names":
                state[name] = list(value)
            elif name not in ("_cached_matrix", "_cached_slots"):
                state[name] = copy.deepcopy(value, memo)
        return clone

    def rebuild_model(self) -> None:
        """Give a copied program its live model back, as the original's was.

        A fresh ``_Highs`` receives every call the original's model received
        since it was created (the backend's journal), so it holds the same
        LP, basis and last solution, and the next solve goes on warm from
        there.  A program without a live model has nothing to rebuild.
        """
        if self._backend is not None:
            self._backend.rebuild()

    # -- variables -----------------------------------------------------------------
    @property
    def _lower(self) -> np.ndarray:
        """Active slice of the lower-bound buffer (writes go through)."""
        return self._lower_buf[: self._num_vars]

    @property
    def _upper(self) -> np.ndarray:
        return self._upper_buf[: self._num_vars]

    @property
    def _integer(self) -> np.ndarray:
        return self._integer_buf[: self._num_vars]

    def num_variables(self) -> int:
        return self._num_vars

    def _grow(self, attributes: Tuple[str, ...], used: int, needed: int) -> None:
        """Grow the named buffers (amortized doubling) to hold ``needed`` entries."""
        capacity = len(getattr(self, attributes[0]))
        if needed > capacity:
            new_capacity = max(needed, 2 * capacity, 64)
            for attribute in attributes:
                old = getattr(self, attribute)
                grown = np.empty(new_capacity, dtype=old.dtype)
                grown[:used] = old[:used]
                setattr(self, attribute, grown)

    def _grow_variables(self, extra: int) -> int:
        """Reserve ``extra`` new columns; returns the first new index."""
        base = self._num_vars
        self._grow(("_lower_buf", "_upper_buf", "_integer_buf"), base, base + extra)
        self._num_vars = base + extra
        return base

    def _reserve_rows(self, count: int) -> List[int]:
        """Bound slots for ``count`` new rows: recycled ones first (LIFO), then fresh."""
        free = self._free_slots
        slots = [free.pop() for _ in range(min(len(free), count))]
        if len(slots) < count:
            base = self._num_slots
            self._num_slots = base + count - len(slots)
            self._grow(("_row_lower_buf", "_row_upper_buf"), base, self._num_slots)
            slots.extend(range(base, self._num_slots))
        return slots

    def add_variable(
        self,
        name: Optional[str] = None,
        lower: float = 0.0,
        upper: Optional[float] = None,
        integer: bool = False,
    ) -> Variable:
        """Add one decision variable and return its handle.

        Indices released by :meth:`release_variables` (or a :meth:`clear_tag`)
        are recycled before the program grows a new column.
        """
        if self._free_variables:
            index = self._free_variables.pop()
            self._names[index] = name if name is not None else f"x{index}"
        else:
            index = self._grow_variables(1)
            self._names.append(name if name is not None else f"x{index}")
            self._structure_revision += 1
        self._lower_buf[index] = float(lower)
        self._upper_buf[index] = float(upper) if upper is not None else math.inf
        self._integer_buf[index] = bool(integer)
        if self._active_tag is not None:
            self._tagged_variables.setdefault(self._active_tag, []).append(index)
        return Variable(index=index, name=self._names[index])

    def add_variables_from_arrays(
        self,
        count: int,
        lower: "float | np.ndarray" = 0.0,
        upper: "float | np.ndarray | None" = None,
        integer: bool = False,
        name: str = "x",
    ) -> np.ndarray:
        """Bulk-allocate ``count`` variables; returns their column indices.

        The columnar counterpart of :meth:`add_variable`: bounds arrive as
        scalars or length-``count`` ndarrays, recycled indices are consumed in
        the same LIFO order the scalar path uses (so both paths assign
        identical index sequences), and no per-variable handle objects or
        name strings are created — every variable shares ``name``.
        """
        count = int(count)
        free = self._free_variables
        recycled = [free.pop() for _ in range(min(len(free), count))]
        grown = count - len(recycled)
        for index in recycled:
            self._names[index] = name
        base = self._grow_variables(grown)
        if grown > 0:
            self._names.extend([name] * grown)
            self._structure_revision += 1
        indices = np.concatenate(
            (np.array(recycled, dtype=np.int64), np.arange(base, base + grown, dtype=np.int64))
        )
        self._lower_buf[indices] = lower
        self._upper_buf[indices] = math.inf if upper is None else upper
        self._integer_buf[indices] = bool(integer)
        if self._active_tag is not None:
            self._tagged_variables.setdefault(self._active_tag, []).extend(indices.tolist())
        return indices

    def set_variable_bounds_from_arrays(
        self, indices: np.ndarray, lower: "float | np.ndarray", upper: "float | np.ndarray"
    ) -> None:
        """Replace many variables' bounds at once (never dirties the matrix cache)."""
        indices = np.asarray(indices, dtype=np.int64)
        self._lower_buf[indices] = lower
        self._upper_buf[indices] = upper

    def release_variables(self, indices: "Sequence[int] | np.ndarray") -> None:
        """Deactivate columns and recycle their indices, in the order given.

        The columns are fixed to zero so the program stays valid even if a
        stale reference survives somewhere; the caller is responsible for
        scrubbing their coefficients from every remaining constraint and from
        the objective before releasing, otherwise a later allocation reusing
        an index inherits those terms.
        """
        indices = np.asarray(indices, dtype=np.int64)
        self._lower_buf[indices] = 0.0
        self._upper_buf[indices] = 0.0
        self._integer_buf[indices] = False
        released = indices.tolist()
        self._free_variables.extend(released)
        self._hs_released.update(released)

    # -- tag scopes --------------------------------------------------------------------
    def begin_tag(self, tag: str) -> None:
        """Tag every variable/constraint created until :meth:`end_tag`."""
        if self._active_tag is not None:
            raise SolverError(f"{self.name}: tag scope {self._active_tag!r} already open")
        self._active_tag = tag

    def end_tag(self) -> None:
        self._active_tag = None

    def clear_tag(self, tag: str) -> None:
        """Remove every constraint and release every variable carrying ``tag``.

        Tagged variables must only be referenced by same-tagged constraints
        and the objective (which callers are expected to rebuild after the
        clear), as an epigraph variable and its rows are.
        """
        self.remove_constraints(self._tagged_constraints.pop(tag, []))
        self.release_variables(self._tagged_variables.pop(tag, []))

    # -- constraints ------------------------------------------------------------------
    def add_constraints_from_arrays(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        coeffs: np.ndarray,
        lower: "float | np.ndarray",
        upper: "float | np.ndarray",
    ) -> np.ndarray:
        """Bulk-add constraints from a columnar ``(rows, cols, coeffs)`` triplet.

        ``rows`` holds per-entry constraint ordinals ``0..n-1`` and must be
        grouped in non-decreasing order; ``lower``/``upper`` are the per-row
        bounds (scalars broadcast).  ``n`` is the length of the bounds
        arrays (so a row may have no terms), or inferred from ``rows`` when
        both bounds are scalars.  Each constraint
        stores the corresponding slice of ``cols`` / ``coeffs``, so whole
        constraint blocks (one row per job, one row per worker type) go in
        straight from ndarrays.  Entries with a zero coefficient are dropped
        and duplicate ``(row, column)`` entries summed.  Returns the new
        constraint handles, in row order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        lower_arr = np.asarray(lower, dtype=float)
        upper_arr = np.asarray(upper, dtype=float)
        sizes = {bound.size for bound in (lower_arr, upper_arr) if bound.ndim}
        if len(sizes) > 1:
            raise SolverError(f"{self.name}: lower/upper bound lengths disagree")
        num_rows = sizes.pop() if sizes else int(rows[-1]) + 1 if rows.size else 0
        cols, coeffs, starts = self._row_block(num_rows, rows, cols, coeffs)
        first_handle = self._next_constraint_id
        self._next_constraint_id += num_rows
        slots = self._reserve_rows(num_rows)
        self._row_lower_buf[slots] = lower_arr
        self._row_upper_buf[slots] = upper_arr
        constraints = self._constraints
        for ordinal, slot in enumerate(slots):
            start, end = starts[ordinal], starts[ordinal + 1]
            constraints[first_handle + ordinal] = _Constraint(
                cols[start:end], coeffs[start:end], slot
            )
        self._hs_rows.update(dict.fromkeys(range(first_handle, first_handle + num_rows)))
        handles = np.arange(first_handle, first_handle + num_rows, dtype=np.int64)
        if self._active_tag is not None:
            self._tagged_constraints.setdefault(self._active_tag, []).extend(handles.tolist())
        if num_rows:
            self._structure_revision += 1
        return handles

    def _row_block(
        self, num_rows: int, rows: np.ndarray, cols: np.ndarray, coeffs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """A ``(rows, cols, coeffs)`` triplet in the stored row format: ``(cols, coeffs, starts)``.

        ``rows`` holds per-entry row ordinals ``0..num_rows-1`` grouped in
        non-decreasing order; row ``k``'s terms come back as
        ``cols[starts[k]:starts[k + 1]]``.  A non-finite coefficient raises;
        zeros are dropped and duplicate ``(row, column)`` entries summed at
        their first occurrence.  The one entry point of every columnar row
        write: new rows, and the batched edits of existing ones.
        """
        name = self.name
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=float)
        if not (rows.shape == cols.shape == coeffs.shape) or rows.ndim != 1:
            raise SolverError(f"{name}: rows/cols/coeffs must be 1-d arrays of one shape")
        if len(rows) <= _SMALL_BLOCK and num_rows <= _SMALL_BLOCK:
            # An event's edit: checked in plain Python, which beats numpy's
            # per-call cost on a few entries; only zeros or repeated columns
            # take it on to the general path.
            ordinals, values = rows.tolist(), coeffs.tolist()
            if ordinals and (ordinals[0] < 0 or ordinals[-1] >= num_rows):
                raise SolverError(f"{name}: row ordinal out of range")
            if any(row > after for row, after in zip(ordinals, ordinals[1:])):
                raise SolverError(f"{name}: rows must be grouped in non-decreasing order")
            if not all(map(math.isfinite, values)):
                _check_finite(coeffs, name)
            if all(values) and len(set(zip(ordinals, cols.tolist()))) == len(ordinals):
                starts = [0] * (num_rows + 1)
                for row in ordinals:
                    starts[row + 1] += 1
                return cols, coeffs, list(itertools.accumulate(starts))
        if len(rows):
            if num_rows == 1 and rows.any() or rows[0] < 0 or rows[-1] >= num_rows:
                raise SolverError(f"{name}: row ordinal out of range")
            if num_rows > 1 and (rows[1:] < rows[:-1]).any():
                raise SolverError(f"{name}: rows must be grouped in non-decreasing order")
        _check_finite(coeffs, name)
        if not coeffs.all():
            nonzero = coeffs != 0.0
            rows, cols, coeffs = rows[nonzero], cols[nonzero], coeffs[nonzero]
        if len(cols) > 1:
            # Coalesce duplicate (row, column) entries by summation — a
            # same-group pair row of a type-aggregated problem legitimately
            # contributes one entry per membership, but HiGHS rejects rows with
            # repeated column indices, so each stored row must hold unique columns.
            keys = cols if num_rows == 1 else rows * (np.int64(cols.max()) + 1) + cols
            if _has_duplicates(keys):
                keep, coeffs = _coalesce(keys, coeffs)
                rows, cols = rows[keep], cols[keep]
        if num_rows == 1:
            return cols, coeffs, [0, len(cols)]
        return cols, coeffs, np.searchsorted(rows, np.arange(num_rows + 1)).tolist()

    def _edited(self, handles: "Sequence[int] | np.ndarray") -> List[_Constraint]:
        """The constraints behind ``handles``, logged with their terms before the edit."""
        handles = np.asarray(handles, dtype=np.int64).tolist()
        constraints = [self._constraint(handle) for handle in handles]
        log = self._hs_rows
        for handle, constraint in zip(handles, constraints):
            log.setdefault(handle, (constraint.indices, constraint.values))
        self._structure_revision += 1
        return constraints

    def add_terms_to_constraints_from_arrays(
        self,
        handles: Sequence[int],
        rows: np.ndarray,
        cols: np.ndarray,
        coeffs: np.ndarray,
    ) -> None:
        """Accumulate terms onto existing rows in one call.

        Row ordinal ``k`` of the ``(rows, cols, coeffs)`` triplet (as
        :meth:`add_constraints_from_arrays` takes it) accumulates onto
        ``handles[k]``: columns already in the row sum in place (their
        position is kept), new columns are appended in order.  The rows are
        logged as edited in ``handles`` order.
        """
        cols, coeffs, starts = self._row_block(len(handles), rows, cols, coeffs)
        incoming = np.zeros(self._num_vars, dtype=bool)
        incoming[cols] = True
        for ordinal, row in enumerate(self._edited(handles)):
            start, end = starts[ordinal], starts[ordinal + 1]
            if start == end:
                continue
            indices = np.concatenate((row.indices, cols[start:end]))
            values = np.concatenate((row.values, coeffs[start:end]))
            if np.count_nonzero(incoming[row.indices]):
                # Columns the row holds already sum in place (zero sums drop).
                first, summed = _coalesce(indices, values)
                indices, values = _nonzero_terms(indices[first], summed)
            row.indices, row.values = indices, values

    def set_constraints_coefficients_from_arrays(
        self,
        handles: Sequence[int],
        rows: np.ndarray,
        cols: np.ndarray,
        coeffs: np.ndarray,
    ) -> None:
        """Replace the coefficients of many rows in one call (bounds unchanged).

        Row ordinal ``k`` of the ``(rows, cols, coeffs)`` triplet becomes the
        terms of ``handles[k]``; the rows are logged as edited in that
        order, so the next solve rewrites them in place in that order.
        """
        cols, coeffs, starts = self._row_block(len(handles), rows, cols, coeffs)
        for ordinal, row in enumerate(self._edited(handles)):
            start, end = starts[ordinal], starts[ordinal + 1]
            row.indices, row.values = cols[start:end], coeffs[start:end]

    def set_column_coefficients_from_arrays(
        self,
        column: "Variable | int",
        handles: "Sequence[int] | np.ndarray",
        values: np.ndarray,
    ) -> None:
        """Set one column's coefficient in many constraints: ``values[k]`` in ``handles[k]``.

        The transpose of :meth:`set_constraints_coefficients_from_arrays`, for a
        column whose entries all move between two solves (the scaling column
        of :class:`~repro.core.session.ThroughputRequirementSession`, the
        epigraph column of the water-filling level rows).  Each row keeps its
        other terms and its place in the live model, and the next solve costs
        one ``changeCoeff`` for every entry that really moved and keeps the
        basis.  A zero value drops the term from its row.

        The rows are logged like any other rewrite, in the order given, so
        their entries reach HiGHS in the order rows were first edited, each
        (row, column) at most once per solve whatever other edits the row
        took; a row whose index array stays in place is diffed by value alone.
        """
        index = column.index if isinstance(column, Variable) else int(column)
        handles = np.asarray(handles, dtype=np.int64)
        values = np.broadcast_to(np.asarray(values, dtype=float), handles.shape)
        _check_finite(values, self.name)
        for row, value in zip(self._edited(handles), values.tolist()):
            row.set_coefficient(index, value)

    def remove_constraints(self, handles: "Sequence[int] | np.ndarray") -> None:
        """Delete constraints by handle, recycling their slots in the order given.

        A handle already removed is skipped.
        """
        constraints, log = self._constraints, self._hs_rows
        for handle in np.asarray(handles, dtype=np.int64).tolist():
            constraint = constraints.pop(handle, None)
            if constraint is not None:
                self._free_slots.append(constraint.slot)
                log.setdefault(handle, (constraint.indices, constraint.values))
        self._structure_revision += 1

    def remove_terms_from_constraints(
        self, handles: Sequence[int], columns: "Sequence[int] | np.ndarray"
    ) -> None:
        """Drop ``columns``' terms from every row of ``handles`` in one call.

        Columns a row does not hold are ignored; the rows are logged as
        edited in ``handles`` order.
        """
        doomed = np.zeros(self._num_vars, dtype=bool)
        doomed[np.asarray(columns, dtype=np.int64)] = True
        for row in self._edited(handles):
            hits = doomed[row.indices]
            if np.count_nonzero(hits):
                keep = ~hits
                row.indices, row.values = row.indices[keep], row.values[keep]

    def set_constraint_bounds_from_arrays(
        self,
        handles: "Sequence[int] | np.ndarray",
        lower: "float | np.ndarray | None" = None,
        upper: "float | np.ndarray | None" = None,
    ) -> None:
        """Update many constraints' bounds at once; ``None`` keeps the old side.

        ``lower`` / ``upper`` broadcast against ``handles``.  A bounds edit
        never dirties the cached constraint matrix, which is what makes
        whole-program right-hand-side sweeps (every water-filling floor bumped
        to its new level, saturated rows relaxed) cost one bound pass plus a
        warm re-solve: one indexed write per side here, and at the next solve
        a ``changeRowBounds`` only for the rows that really moved.
        """
        self.set_constraint_bounds_at_slots(self._slots(handles), lower, upper)

    def _slots(self, handles: "Sequence[int] | np.ndarray") -> List[int]:
        constraints = self._constraints
        try:
            return [constraints[handle].slot for handle in np.asarray(handles, np.int64).tolist()]
        except KeyError as error:
            raise SolverError(f"{self.name}: unknown constraint handle {error.args[0]}") from None

    def constraint_slots(self, handles: "Sequence[int] | np.ndarray") -> np.ndarray:
        """The bound slots of ``handles``, for :meth:`set_constraint_bounds_at_slots`.

        A row keeps its slot until it is removed, so a caller that moves the
        same rows' bounds many times between two structural edits (the
        water-filling level loop) looks the slots up once.
        """
        return np.array(self._slots(handles), dtype=np.int64)

    def set_constraint_bounds_at_slots(
        self,
        slots: "Sequence[int] | np.ndarray",
        lower: "float | np.ndarray | None" = None,
        upper: "float | np.ndarray | None" = None,
    ) -> None:
        """:meth:`set_constraint_bounds_from_arrays` for rows named by :meth:`constraint_slots`.

        The slots must belong to rows that are still in the program.
        """
        if lower is not None:
            self._row_lower_buf[slots] = lower
        if upper is not None:
            self._row_upper_buf[slots] = upper
        if len(slots):
            self._hs_bounds_dirty = True

    def _constraint(self, handle: int) -> _Constraint:
        try:
            return self._constraints[handle]
        except KeyError:
            raise SolverError(f"{self.name}: unknown constraint handle {handle}") from None

    def num_constraints(self) -> int:
        return len(self._constraints)

    # -- objective ---------------------------------------------------------------------
    def set_objective_from_arrays(
        self,
        indices: "Sequence[int] | np.ndarray",
        values: "Sequence[float] | np.ndarray",
        maximize: bool,
        constant: float = 0.0,
    ) -> None:
        """Set the linear objective: ``values`` accumulate at ``indices`` (duplicates sum in order).

        ``maximize`` selects the sense and ``constant`` is added to every
        solution's objective value.
        """
        values = np.asarray(values, dtype=float)
        _check_finite(values, self.name)
        vec = np.zeros(self.num_variables())
        np.add.at(vec, np.asarray(indices, dtype=np.int64), values)
        self._objective_vec = vec
        self._objective_constant = float(constant)
        self._maximize = maximize

    # -- solving --------------------------------------------------------------------------
    def _assembled(self) -> Tuple[Optional[sparse.csr_matrix], np.ndarray, np.ndarray]:
        """Constraint matrix plus per-row bounds, cached between structural edits.

        The CSR matrix is cached on ``(structure revision, num variables)``,
        together with the rows' bound slots; row bounds are gathered from the
        bound buffers every call so right-hand-side edits take effect without
        an assembly.
        """
        key = (self._structure_revision, self.num_variables())
        if key != self._cached_key:
            stored = list(self._constraints.values())
            self._cached_slots = np.fromiter((c.slot for c in stored), np.int64, count=len(stored))
            counts = np.fromiter((len(c.indices) for c in stored), np.int64, count=len(stored))
            rows = np.repeat(np.arange(len(stored)), counts)
            cols = np.concatenate([c.indices for c in stored] or [np.empty(0, np.int64)])
            data = np.concatenate([c.values for c in stored] or [np.empty(0)])
            self._cached_matrix = sparse.csr_matrix(
                (data, (rows, cols)), shape=(len(stored), self.num_variables())
            )
            self._cached_key = key
        slots = self._cached_slots
        return self._cached_matrix, self._row_lower_buf[slots], self._row_upper_buf[slots]

    def _objective_dense(self) -> np.ndarray:
        """Objective coefficients in the program's own sense (no sign flip)."""
        c = np.zeros(self.num_variables())
        stored = self._objective_vec
        c[: min(len(stored), len(c))] = stored[: len(c)]
        return c

    def solve(self, integer_columns: Optional[np.ndarray] = None) -> Solution:
        """Solve the program, raising on infeasibility or solver failure.

        Pure LPs re-solve on the live HiGHS model (see :class:`_HighsBackend`).
        SciPy's ``milp`` is reached in exactly two ways: the program declares
        integer variables, or the caller passes ``integer_columns`` to
        restrict those columns to integers *for this solve only* — how the
        water-filling detection program re-solves its own rows when the LP
        relaxation does not already decide the Appendix A.1 MILP.
        """
        if self.num_variables() == 0:
            raise SolverError(f"{self.name}: cannot solve a program with no variables")
        integrality = self._integer
        if integer_columns is not None:
            integrality = integrality.copy()
            integrality[integer_columns] = True
        if np.count_nonzero(integrality):
            return self._solve_milp(integrality)
        if self._backend is None:
            self._backend = _HighsBackend()
        try:
            return self._backend.solve(self)
        except InfeasibleError:
            raise
        except SolverError:
            # A failed edit leaves the backend's row maps and this program's
            # row log half-advanced, and a failed run leaves HiGHS in an
            # unknown state: drop the live model so the next solve passes the
            # full model again instead of answering for a diverged one.
            self._backend = None
            raise
        except Exception as error:
            self._backend = None
            raise SolverError(f"{self.name}: HiGHS backend failed: {error!r}") from error

    def _clear_log(self) -> None:
        self._hs_rows.clear()
        self._hs_bounds_dirty = False
        self._hs_released.clear()

    def _solve_milp(self, integrality: np.ndarray) -> Solution:
        # milp is stateless: a live backend would miss the edits consumed
        # here, so drop it — the next pure-LP solve passes the full model
        # again — and clear the now-meaningless row log.
        self._backend = None
        self._clear_log()
        constraints = []
        if self._constraints:
            constraints.append(LinearConstraint(*self._assembled()))
        result = milp(
            c=-self._objective_dense() if self._maximize else self._objective_dense(),
            constraints=constraints,
            bounds=ScipyBounds(np.array(self._lower), np.array(self._upper)),
            integrality=integrality.astype(int),
        )
        if not result.success or result.x is None:
            message = result.message or "unknown solver failure"
            if "infeasible" in message.lower():
                raise InfeasibleError(f"{self.name}: {message}")
            raise SolverError(f"{self.name}: {message}")
        objective_value = -float(result.fun) if self._maximize else float(result.fun)
        return Solution(
            values=np.asarray(result.x, dtype=float),
            objective_value=objective_value + self._objective_constant,
            status="optimal",
        )

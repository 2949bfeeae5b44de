"""Per-round priority computation — Section 5, Figure 4.

Between allocation recomputations the scheduler tracks, for every job
combination and accelerator type, the wall-clock time the combination has
already received.  The *fraction* matrix ``f`` normalizes this per accelerator
type, and the priority of a (combination, type) pair is the element-wise
ratio ``X_opt / f``: combinations that have received less time than their
target allocation get a high priority (infinite if they have received
nothing at all) and are scheduled first in the next round.

Data layout.  A tracker lives for one allocation period and holds that
period's state densely: every array has one row per combination, in the
allocation's *sorted* combination order (``combinations[row]``, inverse
``row_of``), and one column per accelerator type in registry order.
``target`` (``X_opt``), ``demand`` (workers a combination occupies) and
``num_jobs`` are fixed for the period; only ``time_received`` changes, by one
indexed add per round: :meth:`PriorityTracker.add_time` takes the round's
picks as ``(rows, columns)`` index lists, exactly as Algorithm 1 produced them
(:meth:`~PriorityTracker.record_time` is the same add for one cell addressed
by combination and accelerator name).

Candidates.  Only a cell with a positive target can be scheduled, and which
cells those are, and how they tie-break, is fixed for the period, so the
tracker builds its :class:`Candidates` index once: those cells as
row/column/target arrays, in Algorithm 1's static order.  A round needs
priorities at those cells only (:meth:`PriorityTracker.candidate_priorities`);
:meth:`~PriorityTracker.fractions` and :meth:`~PriorityTracker.priorities`
give the whole matrix.  Both paths evaluate one per-cell expression
(``_fractions``, ``_priorities``) with the column totals of the whole matrix
— time recorded on a cell without a target still counts in its column — and
perform, per cell, the same IEEE operations as the scalar definition above.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.throughput_matrix import JobCombination
from repro.exceptions import SchedulingError

__all__ = ["Candidates", "PriorityTracker"]


class PriorityTracker:
    """Time received per (combination, accelerator type) and the priorities it implies.

    Attributes:
        combinations: The allocation's combinations, sorted; row order of every array.
        row_of: Inverse of ``combinations``, made on first read (a round
            addresses rows by index and never reads it).
        target: ``X_opt`` as a read-only ``(n_combinations, n_types)`` array.
        demand: Workers each combination occupies when scheduled — the largest
            scale factor among its members, per row.
        num_jobs: Distinct jobs over all rows: once that many are busy, a round
            has nothing left to pick.
        time_received: Seconds received this period, same shape as ``target``.
        candidates: The cells with a positive target, in Algorithm 1's static
            order (:class:`Candidates`), built once for the period.
    """

    def __init__(self, allocation: Allocation) -> None:
        self._allocation = allocation
        self.combinations: Tuple[JobCombination, ...] = allocation.combinations
        self._row_of: Optional[Dict[JobCombination, int]] = None
        self.target: np.ndarray = allocation.matrix
        self.demand: Tuple[int, ...] = allocation.demand
        self.num_jobs: int = len(allocation.job_ids)
        self.time_received: np.ndarray = np.zeros(self.target.shape)
        self._wanted: np.ndarray = self.target > 0
        self.candidates: Candidates = Candidates.build(self.target, allocation.registry.name_order)

    # -- bookkeeping -------------------------------------------------------------
    @property
    def allocation(self) -> Allocation:
        return self._allocation

    @property
    def row_of(self) -> Dict[JobCombination, int]:
        if self._row_of is None:
            self._row_of = dict(zip(self.combinations, range(len(self.combinations))))
        return self._row_of

    def row(self, combination: Sequence[int]) -> int:
        """Row of ``combination`` (members in any order) in every array."""
        row = self.row_of.get(tuple(combination))
        if row is None:
            row = self.row_of.get(tuple(sorted(int(j) for j in combination)))
        if row is None:
            raise SchedulingError(
                f"combination {tuple(combination)} is not part of the tracked allocation"
            )
        return row

    def add_time(self, rows: Sequence[int], columns: Sequence[int], seconds: float) -> None:
        """Record that every cell ``(rows[i], columns[i])`` ran for ``seconds``: one round's picks."""
        # ``not (0 <= s < inf)`` also rejects NaN, which a ``s < 0`` guard lets
        # through — and one NaN makes the combination's priorities NaN, which
        # Algorithm 1 then skips forever without an error.
        if not (0 <= seconds < math.inf):
            raise SchedulingError(f"cannot record time {seconds}: need a finite value >= 0")
        # Half the cost of ``time_received[rows, columns] += seconds`` on a round's worth of cells.
        np.add.at(self.time_received, (rows, columns), seconds)

    def record_time(self, combination: Sequence[int], accelerator_name: str, seconds: float) -> None:
        """:meth:`add_time` for one cell, addressed by combination and accelerator name."""
        column = self._allocation.registry.index_of(accelerator_name)
        self.add_time([self.row(combination)], [column], seconds)

    def snapshot_state(self) -> np.ndarray:
        """Copy of the time-received matrix (for checkpointing)."""
        return self.time_received.copy()

    def restore_state(self, state: np.ndarray) -> None:
        """Overwrite the time-received matrix from a :meth:`snapshot_state` copy.

        The state must have exactly the tracked allocation's shape — restoring
        a snapshot taken against a different allocation is a
        checkpoint/allocation mismatch.
        """
        received = np.array(state, dtype=float)
        if received.shape != self.target.shape:
            raise SchedulingError(
                f"priority-tracker state has shape {received.shape}, "
                f"the tracked allocation needs {self.target.shape}"
            )
        self.time_received = received

    def total_time_per_type(self) -> np.ndarray:
        """Total recorded seconds per accelerator type across all combinations."""
        return self.time_received.sum(axis=0)

    # -- fractions and priorities ----------------------------------------------------
    def fractions(self) -> np.ndarray:
        """``f[k, j]``: share of accelerator ``j``'s recorded time spent on combination ``k``."""
        return _fractions(self.time_received, self.total_time_per_type())

    def priorities(self) -> np.ndarray:
        """Element-wise ``X_opt / f`` with the conventions of Figure 4.

        * target 0 ⇒ priority 0 (never scheduled on that type);
        * target > 0 and no time received yet ⇒ infinite priority;
        * otherwise the ratio of target to received fraction.
        """
        return np.where(self._wanted, _priorities(self.target, self.fractions()), 0.0)

    def candidate_priorities(self) -> np.ndarray:
        """:meth:`priorities` at the :attr:`candidates` cells only, in their order."""
        candidates = self.candidates
        fractions = _fractions(
            self.time_received.take(candidates.cells),
            self.total_time_per_type().take(candidates.columns),
        )
        return _priorities(candidates.target, fractions)


class Candidates(NamedTuple):
    """An allocation period's candidate index: the cells with a positive target.

    Parallel arrays, one entry per cell: ``rows`` / ``columns`` address it in
    the tracker's arrays, ``cells`` is its flat index ``row * n_types +
    column`` and ``target`` its ``X_opt``.  The cells come in Algorithm 1's
    static tie-break order — target descending, then combination (row order:
    rows are the sorted combinations), then accelerator *name*, which is not
    registry column order — so a stable sort on priority alone completes the
    order.  None of these keys changes within a period.
    """

    rows: np.ndarray
    columns: np.ndarray
    cells: np.ndarray
    target: np.ndarray

    @classmethod
    def build(cls, target: np.ndarray, by_name: np.ndarray) -> "Candidates":
        """The cells of ``target`` above zero, in static order.

        ``by_name`` is ``target``'s columns in accelerator-name order
        (:attr:`~repro.cluster.accelerators.AcceleratorRegistry.name_order`).
        The columns are visited in that order, so the cells come by row, then
        name, and one stable sort on the target completes the order.
        """
        width = target.shape[1]
        named = target[:, by_name]
        (positions,) = np.nonzero(named.ravel() > 0)
        values = named.ravel()[positions]
        order = np.argsort(-values, kind="stable")
        rows, ranks = np.divmod(positions[order], width)
        columns = by_name[ranks]
        return cls(rows, columns, rows * width + columns, values[order])


# Figure 4 per cell, its one implementation: the whole matrix and a round's
# candidate cells both come through these two functions, which take arrays
# of any shapes that broadcast, so both perform the same IEEE operations on
# a cell.
def _fractions(received: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``received / totals`` where the total is positive, else 0."""
    fractions = np.zeros(received.shape)
    np.divide(received, totals, out=fractions, where=totals > 0)
    return fractions


def _priorities(target: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Priority of a cell with a positive target: ``inf`` if ``f <= 0``, else ``target / f``.

    ``not (f <= 0)`` rather than ``f > 0`` divides at a NaN fraction too, so
    the priority is NaN there, which Algorithm 1 never picks.  A cell without
    a target is the caller's to zero (:meth:`PriorityTracker.priorities`).
    """
    starved = fractions <= 0
    priorities = np.empty(fractions.shape)
    priorities.fill(math.inf)
    np.divide(target, fractions, out=priorities, where=~starved)
    return priorities

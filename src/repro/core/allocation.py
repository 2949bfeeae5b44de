"""Allocation matrices (the ``X`` of Section 3.1).

An allocation specifies, for every schedulable unit (job or job combination)
and every accelerator type, the fraction of wall-clock time the unit should
spend running on that type between allocation recomputations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.accelerators import AcceleratorRegistry
from repro.cluster.cluster_spec import ClusterSpec
from repro.core.throughput_matrix import JobCombination, ThroughputMatrix
from repro.exceptions import AllocationError, UnknownJobError

__all__ = ["Allocation"]

_VALIDATION_TOLERANCE = 1e-4


class Allocation:
    """Time-fraction allocation over job combinations and accelerator types."""

    def __init__(
        self,
        registry: AcceleratorRegistry,
        entries: Mapping[JobCombination, np.ndarray],
        scale_factors: Optional[Mapping[int, int]] = None,
    ) -> None:
        self._registry = registry
        self._entries: Dict[JobCombination, np.ndarray] = {}
        for combination, values in entries.items():
            key = tuple(sorted(int(j) for j in combination))
            array = np.asarray(values, dtype=float).reshape(-1)
            if array.shape != (len(registry),):
                raise AllocationError(
                    f"allocation row for {key} has shape {array.shape}, expected ({len(registry)},)"
                )
            self._entries[key] = array
        self._scale_factors: Dict[int, int] = dict(scale_factors or {})
        # Entries are immutable after construction, so the sorted row order
        # (and the dense matrix aligned with it) is computed once.
        self._combinations: Tuple[JobCombination, ...] = tuple(sorted(self._entries))
        self._matrix: Optional[np.ndarray] = None
        self._job_ids: Tuple[int, ...] = tuple(
            sorted({job_id for combination in self._entries for job_id in combination})
        )

    # -- constructors -------------------------------------------------------------
    @classmethod
    def zeros(
        cls,
        matrix: ThroughputMatrix,
        scale_factors: Optional[Mapping[int, int]] = None,
    ) -> "Allocation":
        """An all-zero allocation over the rows of ``matrix``."""
        return cls(
            matrix.registry,
            {combination: np.zeros(len(matrix.registry)) for combination in matrix.combinations},
            scale_factors=scale_factors,
        )

    # -- structure -----------------------------------------------------------------
    @property
    def registry(self) -> AcceleratorRegistry:
        return self._registry

    @property
    def combinations(self) -> Tuple[JobCombination, ...]:
        """Every row key, sorted; the row order of :attr:`matrix`."""
        return self._combinations

    @property
    def matrix(self) -> np.ndarray:
        """All rows as one read-only ``(len(combinations), len(registry))`` array."""
        if self._matrix is None:
            rows = [self._entries[combination] for combination in self._combinations]
            matrix = np.array(rows, dtype=float).reshape(len(rows), len(self._registry))
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    @property
    def job_ids(self) -> Tuple[int, ...]:
        return self._job_ids

    def scale_factor(self, job_id: int) -> int:
        """Workers requested by ``job_id`` (1 when not recorded)."""
        return int(self._scale_factors.get(job_id, 1))

    def has_row(self, combination: Sequence[int]) -> bool:
        """Whether this allocation has an entry for the given combination."""
        key = tuple(sorted(int(j) for j in combination))
        return key in self._entries

    # -- values ---------------------------------------------------------------------
    def row(self, combination: Sequence[int]) -> np.ndarray:
        key = tuple(sorted(int(j) for j in combination))
        if key not in self._entries:
            raise UnknownJobError(f"combination {key} is not part of this allocation")
        return self._entries[key].copy()

    def value(self, combination: Sequence[int], accelerator_name: str) -> float:
        return float(self.row(combination)[self._registry.index_of(accelerator_name)])

    def job_total(self, job_id: int) -> float:
        """Total time fraction job ``job_id`` receives across all rows and types."""
        total = 0.0
        for combination, values in self._entries.items():
            if job_id in combination:
                total += float(values.sum())
        return total

    def job_row(self, job_id: int) -> np.ndarray:
        """Per-accelerator time fractions of ``job_id`` summed over all rows containing it."""
        row = np.zeros(len(self._registry))
        for combination, values in self._entries.items():
            if job_id in combination:
                row += values
        return row

    def worker_usage(self) -> np.ndarray:
        """Expected worker usage per accelerator type (left side of constraint (3))."""
        usage = np.zeros(len(self._registry))
        for combination, values in self._entries.items():
            scale = max(self.scale_factor(job_id) for job_id in combination)
            usage += values * scale
        return usage

    def as_dict(self) -> Dict[JobCombination, np.ndarray]:
        """A copy of the raw entries."""
        return {combination: values.copy() for combination, values in self._entries.items()}

    # -- validation -------------------------------------------------------------------
    def validate(self, cluster_spec: ClusterSpec, tolerance: float = _VALIDATION_TOLERANCE) -> None:
        """Check the Section 3.1 validity constraints, raising on violation.

        1. every entry lies in ``[0, 1]``;
        2. the total allocation of each job (summed over every combination the
           job participates in and every accelerator type) is at most 1;
        3. expected worker usage per accelerator type does not exceed the
           number of workers of that type.
        """
        for combination, values in self._entries.items():
            if np.any(values < -tolerance) or np.any(values > 1 + tolerance):
                raise AllocationError(
                    f"allocation entries for {combination} are outside [0, 1]: {values}"
                )
        for job_id in self._job_ids:
            total = self.job_total(job_id)
            if total > 1 + tolerance:
                raise AllocationError(
                    f"job {job_id} is allocated a total time fraction of {total:.4f} > 1"
                )
        usage = self.worker_usage()
        capacity = cluster_spec.counts_vector()
        for column, name in enumerate(self._registry.names):
            if usage[column] > capacity[column] + tolerance:
                raise AllocationError(
                    f"allocation oversubscribes {name}: uses {usage[column]:.4f} of "
                    f"{capacity[column]:.0f} workers"
                )

    def is_valid(self, cluster_spec: ClusterSpec, tolerance: float = _VALIDATION_TOLERANCE) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(cluster_spec, tolerance=tolerance)
        except AllocationError:
            return False
        return True

    # -- misc ---------------------------------------------------------------------------
    def clipped(self, upper: Optional[float] = 1.0) -> "Allocation":
        """Return a copy with entries clipped to ``[0, upper]`` (cleans up LP round-off).

        Type-aggregated solves pass ``upper=None``: group-total rows may
        legitimately exceed 1, so only the lower bound is enforced.
        """
        top = np.inf if upper is None else upper
        return Allocation(
            self._registry,
            {combination: np.clip(values, 0.0, top) for combination, values in self._entries.items()},
            scale_factors=self._scale_factors,
        )

    def __repr__(self) -> str:
        lines = [f"Allocation({len(self._entries)} rows, accelerators={list(self._registry.names)})"]
        for combination in self._combinations:
            values = ", ".join(f"{v:.3f}" for v in self._entries[combination])
            lines.append(f"  {combination}: [{values}]")
        return "\n".join(lines)

"""Job model.

A :class:`Job` is one training run submitted to the cluster: a model/batch
size configuration (a *job type*), a number of training steps to perform, a
worker count (``scale_factor``), optional priority weight, SLO, and an entity
for hierarchical policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError

__all__ = ["Job", "JobIdAllocator"]


@dataclass(frozen=True)
class Job:
    """One training job.

    Attributes:
        job_id: Unique non-negative integer identifier.
        job_type: Name of the model/batch-size configuration, e.g.
            ``"resnet50-bs64"``.  Throughput oracles are indexed by job type.
        total_steps: Number of training iterations remaining when the job was
            submitted (``num_steps_m`` in the paper).
        arrival_time: Submission time in seconds from the start of the trace.
        scale_factor: Number of workers the job requests (1 for single-GPU
            jobs; the paper's multi-worker traces use 2, 4 and 8).
        priority_weight: Weight ``w_m`` used by weighted fairness policies.
        slo_seconds: Optional deadline (seconds from arrival) for SLO-aware
            cost policies; ``None`` means no SLO.
        entity_id: Optional entity (department / team) for hierarchical
            policies; ``None`` for single-level policies.
        duration_seconds_on_reference: Optional bookkeeping field recording the
            intended duration on the reference accelerator used by the trace
            generator; useful for analysis, never read by policies.
    """

    job_id: int
    job_type: str
    total_steps: float
    arrival_time: float = 0.0
    scale_factor: int = 1
    priority_weight: float = 1.0
    slo_seconds: Optional[float] = None
    entity_id: Optional[int] = None
    duration_seconds_on_reference: Optional[float] = None

    def __deepcopy__(self, memo: dict) -> "Job":
        return self  # immutable: a deep copy (a policy-session clone) shares it

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ConfigurationError(f"job_id must be non-negative, got {self.job_id}")
        if not self.job_type:
            raise ConfigurationError("job_type must be non-empty")
        if not (self.total_steps > 0) or not math.isfinite(self.total_steps):
            raise ConfigurationError(
                f"total_steps must be positive and finite, got {self.total_steps}"
            )
        if not (self.arrival_time >= 0) or not math.isfinite(self.arrival_time):
            raise ConfigurationError(
                f"arrival_time must be non-negative and finite, got {self.arrival_time}"
            )
        if self.scale_factor < 1 or int(self.scale_factor) != self.scale_factor:
            raise ConfigurationError(
                f"scale_factor must be a positive integer, got {self.scale_factor}"
            )
        if not (self.priority_weight > 0) or not math.isfinite(self.priority_weight):
            raise ConfigurationError(
                f"priority_weight must be positive and finite, got {self.priority_weight}"
            )
        if self.slo_seconds is not None and (
            not (self.slo_seconds > 0) or not math.isfinite(self.slo_seconds)
        ):
            raise ConfigurationError(
                f"slo_seconds must be positive and finite when set, got {self.slo_seconds}"
            )

    # -- convenience ----------------------------------------------------------
    def with_priority(self, priority_weight: float) -> "Job":
        """Return a copy of this job with a different priority weight."""
        return replace(self, priority_weight=priority_weight)

    def with_entity(self, entity_id: int) -> "Job":
        """Return a copy of this job assigned to an entity."""
        return replace(self, entity_id=entity_id)

    def with_slo(self, slo_seconds: float) -> "Job":
        """Return a copy of this job with an SLO deadline."""
        return replace(self, slo_seconds=slo_seconds)

    def __str__(self) -> str:
        return (
            f"Job(id={self.job_id}, type={self.job_type}, steps={self.total_steps:g}, "
            f"scale_factor={self.scale_factor})"
        )


class JobIdAllocator:
    """Hands out monotonically increasing job ids."""

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ConfigurationError(f"start must be non-negative, got {start}")
        self._next = start

    def next_id(self) -> int:
        """Return the next unused job id."""
        job_id = self._next
        self._next += 1
        return job_id

    @property
    def num_allocated(self) -> int:
        return self._next

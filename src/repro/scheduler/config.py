"""Scheduler configuration: the tunables the service and the simulator share."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError

__all__ = ["SchedulerConfig"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunable scheduler behaviour (shared by the service and the simulator).

    Attributes:
        round_duration_seconds: Length of one scheduling round (paper default
            6 minutes; 20 minutes for the physical cluster runs).
        mode: ``"round"`` (the full Section 5 mechanism), ``"continuous"``
            (event-driven: a central event heap of arrivals, completions,
            scheduled control events and optional periodic re-solve ticks,
            each triggering an incremental re-allocation at event granularity
            instead of at round boundaries), ``"ideal"`` (the continuous event
            loop without re-solve ticks: jobs progress fluidly at exactly
            their allocation's effective throughput — the baseline of Figure
            13b) or ``"physical"`` (``round`` plus per-preemption
            checkpoint overhead and seeded throughput jitter, standing in for
            the paper's 48-GPU cluster).
        resolve_interval_seconds: Continuous mode only: when set, the event
            loop additionally re-solves on a periodic grid (the next tick is
            the next multiple of the interval), bounding allocation staleness
            for time-sensitive policies even when no arrival/completion/
            control event fires.  Grid alignment keeps the tick schedule a
            pure function of the clock, so snapshots need no extra tick
            state.  ``None`` (the default) re-solves on events only.
        checkpoint_overhead_seconds: Time lost when a job is preempted or
            migrated at a round boundary (physical mode only).  The overhead
            window holds the accelerator, so it is billed and counted as busy
            time like productive execution, but it is *also* accounted
            separately (``JobRecord.checkpoint_seconds`` /
            ``SimulationResult.checkpoint_worker_seconds``) so cost and
            utilization can be decomposed into productive and overhead parts.
        throughput_jitter_std: Relative std-dev of per-round throughput noise
            (physical mode only).
        seed: Seed for the jitter generator.
        max_simulated_seconds: Safety cap on scheduler time.
        colocation_threshold: Minimum combined normalized throughput for a job
            pair to be considered by space-sharing policies.
        aggregation: Problem-representation mode handed to the policy and the
            allocation engine: ``"job"`` (one LP row per job, the default) or
            ``"type"`` (the LP is solved over groups of interchangeable jobs
            and per-job shares recovered by proportional split — see
            :mod:`repro.core.aggregation`).  ``"type"`` is only accepted for
            the policy bases listed in
            :data:`~repro.core.aggregation.AGGREGATION_SUPPORTED_BASES`.
        estimator: Optional throughput-estimator object exposing the
            :class:`~repro.workloads.colocation.ColocationModel` query
            interface; when set, space-sharing policies see *estimated*
            colocated throughputs while execution still uses the true model.
        max_session_history: When set, the live policy session is bounded
            to this many solves: the next recomputation re-bases onto a *cold*
            session, which bounds what a snapshot's session checkpoint carries
            (each live model's call journal grows by one solve per solve).
            Runs stay deterministic and restores bit-exact *for that run*, but
            a cold solve may pick a different optimal vertex, so schedules can
            differ from an unbounded run.  ``None`` (default) keeps one session
            until the policy is swapped.
    """

    round_duration_seconds: float = 360.0
    mode: str = "round"
    resolve_interval_seconds: Optional[float] = None
    checkpoint_overhead_seconds: float = 5.0
    throughput_jitter_std: float = 0.02
    seed: int = 0
    max_simulated_seconds: float = 6.0e7
    colocation_threshold: float = 1.1
    aggregation: str = "job"
    estimator: Optional[object] = None
    max_session_history: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("round", "ideal", "physical", "continuous"):
            raise ConfigurationError(f"unknown simulator mode {self.mode!r}")
        if self.resolve_interval_seconds is not None and self.mode != "continuous":
            raise ConfigurationError("resolve_interval_seconds requires mode='continuous'")
        # Every number must be finite: a NaN passes any ``<`` check unnoticed
        # and an infinity silently turns a cap or a step off.
        for name, positive in (
            ("round_duration_seconds", True),
            ("resolve_interval_seconds", True),
            ("max_simulated_seconds", True),
            ("checkpoint_overhead_seconds", False),
            ("throughput_jitter_std", False),
            ("colocation_threshold", False),
        ):
            value = getattr(self, name)
            if value is not None and not (
                math.isfinite(value) and (value > 0 if positive else value >= 0)
            ):
                bound = "positive" if positive else "non-negative"
                raise ConfigurationError(f"{name} must be finite and {bound}, got {value!r}")
        if self.aggregation not in ("job", "type"):
            raise ConfigurationError(
                f"unknown aggregation mode {self.aggregation!r}; expected 'job' or 'type'"
            )
        if self.max_session_history is not None and self.max_session_history < 1:
            raise ConfigurationError("max_session_history must be at least 1")

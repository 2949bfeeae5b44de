"""Scheduling layer: the online scheduler service, priorities, Algorithm 1, leases."""

from repro.scheduler.clock import Clock, VirtualClock, WallClock
from repro.scheduler.lease import CheckpointStore, GavelIterator, Lease
from repro.scheduler.mechanism import RoundPicks, RoundScheduler, ScheduledCombination
from repro.scheduler.metrics import JobRecord, SimulationResult, cdf_points
from repro.scheduler.priorities import PriorityTracker
from repro.scheduler.service import (
    ClusterScheduler,
    SchedulerConfig,
    SchedulerSnapshot,
    SchedulerStatus,
)

__all__ = [
    "Clock",
    "VirtualClock",
    "WallClock",
    "ClusterScheduler",
    "SchedulerConfig",
    "SchedulerSnapshot",
    "SchedulerStatus",
    "PriorityTracker",
    "RoundPicks",
    "RoundScheduler",
    "ScheduledCombination",
    "Lease",
    "GavelIterator",
    "CheckpointStore",
    "JobRecord",
    "SimulationResult",
    "cdf_points",
]

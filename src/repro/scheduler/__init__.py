"""Scheduling layer: the online scheduler service, priorities, Algorithm 1."""

from repro.scheduler.clock import Clock, VirtualClock, WallClock
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
    "JobRecord",
    "SimulationResult",
    "cdf_points",
]

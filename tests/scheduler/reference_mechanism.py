"""Scalar reference of Figure 4's priorities and Algorithm 1's round selection.

This is the dict-and-loop implementation that ``repro.scheduler.priorities``
and ``repro.scheduler.mechanism`` shipped before they moved onto dense
arrays, kept verbatim (state passed in instead of held) as the differential
oracle for ``test_mechanism_properties.py``.  Do not optimise it: its value is
that every comparison and tie-break is spelled out one cell at a time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Set, Tuple

import numpy as np

from repro.cluster import ClusterSpec
from repro.core import Allocation

Combination = Tuple[int, ...]


def reference_fractions(
    allocation: Allocation, time_received: Mapping[Combination, np.ndarray]
) -> Dict[Combination, np.ndarray]:
    """``f[k, j]``: share of accelerator ``j``'s recorded time spent on combination ``k``."""
    num_types = len(allocation.registry)
    totals = np.zeros(num_types)
    for received in time_received.values():
        totals += received
    fractions: Dict[Combination, np.ndarray] = {}
    for combination, received in time_received.items():
        row = np.zeros(num_types)
        for column in range(num_types):
            if totals[column] > 0:
                row[column] = received[column] / totals[column]
        fractions[combination] = row
    return fractions


def reference_priorities(
    allocation: Allocation, time_received: Mapping[Combination, np.ndarray]
) -> Dict[Combination, np.ndarray]:
    """Element-wise ``X_opt / f`` with the conventions of Figure 4."""
    fractions = reference_fractions(allocation, time_received)
    priorities: Dict[Combination, np.ndarray] = {}
    for combination in allocation.combinations:
        target = allocation.row(combination)
        fraction = fractions[combination]
        row = np.zeros(len(allocation.registry))
        for column in range(len(allocation.registry)):
            if target[column] <= 0:
                row[column] = 0.0
            elif fraction[column] <= 0:
                row[column] = math.inf
            else:
                row[column] = target[column] / fraction[column]
        priorities[combination] = row
    return priorities


def reference_schedule_round(
    allocation: Allocation,
    priorities: Mapping[Combination, np.ndarray],
    scale_factors: Mapping[int, int],
    cluster_spec: ClusterSpec,
) -> List[Tuple[Combination, str, int, float]]:
    """Algorithm 1: ``(combination, accelerator, scale, priority)`` in pick order."""
    registry = allocation.registry
    candidates: List[Tuple[float, float, Combination, str, int, float]] = []
    for combination in allocation.combinations:
        scale = max(int(scale_factors.get(job_id, 1)) for job_id in combination)
        target = allocation.row(combination)
        priority_row = priorities[combination]
        for column, accelerator_name in enumerate(registry.names):
            if target[column] <= 0:
                continue
            priority = priority_row[column]
            if not (priority > 0):
                continue
            # The shipped code sorted a clamped key; the true priority rides along.
            sort_priority = priority if math.isfinite(priority) else 1e18
            candidates.append(
                (sort_priority, float(target[column]), combination, accelerator_name, scale,
                 float(priority))
            )

    candidates.sort(key=lambda item: (-item[0], -item[1], item[2], item[3]))

    remaining: Dict[str, int] = {name: cluster_spec.count(name) for name in registry.names}
    scheduled: List[Tuple[Combination, str, int, float]] = []
    busy_jobs: Set[int] = set()
    for _sort_priority, _target, combination, accelerator_name, scale, priority in candidates:
        if any(job_id in busy_jobs for job_id in combination):
            continue
        if remaining[accelerator_name] < scale:
            continue
        remaining[accelerator_name] -= scale
        busy_jobs.update(combination)
        scheduled.append((combination, accelerator_name, scale, priority))
        if all(count == 0 for count in remaining.values()):
            break
    return scheduled

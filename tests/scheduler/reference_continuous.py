"""Scalar reference of one fluid event: the per-job loop ``continuous`` mode replaced.

This is ``ClusterScheduler._step_continuous`` as it stood before the event moved
onto arrays — per job per accelerator type a ``job_row``-style lookup, a
registry lookup for the price and three dictionary updates — kept as the
differential oracle of ``test_continuous_equivalence.py``.  It differs from that
code in one place on purpose, the *pair fix*: a space-sharing pair row used to be
charged once per member (busy time and cost both counted twice).  Here, as in
the round loop, a row occupies ``demand`` devices once whoever is in it, and
each member is billed the row's fraction divided by the row's size.  State is
reached through the scheduler passed in, and completions skip the wall-clock
timing of the engine call.  Do not optimise it: its value is that it does every
step per item, in the obvious order.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.core.effective_throughput import effective_throughputs
from repro.exceptions import SchedulingError
from repro.scheduler import ClusterScheduler

_SECONDS_PER_HOUR = 3600.0


def reference_step(scheduler: ClusterScheduler) -> bool:
    """``ClusterScheduler.step()`` in a fluid mode, through the scalar event below.

    Returns whether work remains, as ``step()`` does.
    """
    if not scheduler.has_work or scheduler.now >= scheduler._config.max_simulated_seconds:
        return False
    _reference_step_continuous(scheduler)
    return scheduler.has_work


def _reference_step_continuous(self: ClusterScheduler) -> None:
    if not self._active:
        head = self._peek_pending()
        control = self._peek_control_event()
        targets = [entry[0] for entry in (head, control) if entry is not None]
        if targets:
            self._clock.advance_to(min(min(targets), self._config.max_simulated_seconds))
    current_time = self._clock.now()
    if current_time >= self._config.max_simulated_seconds:
        return
    self._apply_due_control_events(current_time)
    self._admit_arrivals(current_time)
    current_time = self._clock.now()
    if not self._active:
        return

    allocation = self._solve_allocation(current_time)
    matrix = self._session.problem.throughputs

    throughputs = effective_throughputs(matrix, allocation)
    for job_id, throughput in throughputs.items():
        if throughput > 0 and self._records[job_id].first_allocation_time is None:
            self._records[job_id].first_allocation_time = current_time
    # Time to the next event.
    head = self._peek_pending()
    next_arrival = head[0] if head is not None else math.inf
    earliest_completion = math.inf
    for job_id, state in self._active.items():
        throughput = throughputs[job_id]
        if throughput > 0:
            steps_remaining = max(0.0, state.job.total_steps - state.steps_done)
            earliest_completion = min(
                earliest_completion, current_time + steps_remaining / throughput
            )
    control = self._peek_control_event()
    next_control = control[0] if control is not None else math.inf
    next_event = min(
        next_arrival,
        earliest_completion,
        next_control,
        self._next_resolve_tick(current_time),
    )
    if not math.isfinite(next_event):
        raise SchedulingError(f"{self._config.mode} execution stalled: no job can make progress")
    dt = max(0.0, next_event - current_time)

    names = self._cluster_spec.registry.names
    # The pair fix, part one: the rows each job is billed for, in row order.
    rows_of: Dict[int, List[int]] = {}
    for row, combination in enumerate(allocation.combinations):
        for job_id in combination:
            rows_of.setdefault(job_id, []).append(row)
    for job_id, state in list(self._active.items()):
        throughput = throughputs[job_id]
        state.steps_done += throughput * dt
        record = self._records[job_id]
        record.steps_done = state.steps_done
        for column, name in enumerate(names):
            share = 0.0
            for row in rows_of.get(job_id, []):
                share += allocation.matrix[row][column] / len(allocation.combinations[row])
            worker_seconds = share * dt * state.job.scale_factor
            cost = (
                self._cluster_spec.registry.get(name).cost_per_hour
                * worker_seconds
                / _SECONDS_PER_HOUR
            )
            record.cost_dollars += cost
            self._total_cost += cost
        if max(0.0, state.job.total_steps - state.steps_done) <= 1e-6:
            record.completion_time = current_time + dt
            del self._active[job_id]
            self._engine.remove_job(job_id)
            self._note_churn(record.completion_time)
    # The pair fix, part two: a row is busy once, on ``demand`` devices.
    for values, demand in zip(allocation.matrix, allocation.demand):
        for column, name in enumerate(names):
            self._busy_seconds[name] += values[column] * dt * demand

    self._clock.advance_to(next_event)
    self._num_rounds += 1

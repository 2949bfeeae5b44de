"""Seeded round-mechanism runs: three scenarios the pinned-outcome corpus replays.

``tests/outcomes.py`` pins each scenario's result, the calls of every HiGHS
model and its step count in ``tests/data/outcomes.json``.  A refactor of the
round *mechanism* (priorities, Algorithm 1, placement, accounting) must
reproduce them.  The allocations the mechanism is fed are LAS vertices,
though, and the LAS optimum is not unique (time above the fair minimum can go
to any job), so the entries also pin how the LP layer carries its basis from
one re-allocation to the next: a change there — or another HiGHS build — may
move every number in them.

``data/round_fingerprints_cold.json`` is the recording from before the basis
survived row edits (made on the scalar ``PriorityTracker`` / ``RoundScheduler``
/ ``Placer``, reproduced exactly by the dense-array mechanism).  It is never
re-recorded; tests hold today's runs to what no tie-break may move in it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.cluster import ClusterSpec
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.workloads import ThroughputOracle, TraceGenerator, TraceGeneratorConfig

#: name -> (policy, scheduler config, cluster counts per type, multi-worker trace?)
SCENARIOS: Dict[str, Any] = {
    # Scale factors 1-8 on 8-GPU types: distributed demand, unconsolidated placements.
    "round": ("max_min_fairness", SchedulerConfig(mode="round"), 8, True),
    # Checkpoint overhead on preemption/migration and seeded throughput jitter.
    "physical": (
        "max_min_fairness",
        SchedulerConfig(mode="physical", throughput_jitter_std=0.05, seed=11),
        2,
        False,
    ),
    # Space-sharing pairs compete with their members' singleton rows.
    "space_sharing": ("max_min_fairness+ss", SchedulerConfig(mode="round"), 2, False),
}

#: The water-filling family, replayed through every scenario's configuration
#: by the ``_solve_milp`` count test.  No outcome is pinned for these: when
#: identical jobs tie, the Appendix A.1 optimum is not unique.
WATER_FILLING_SPECS = [
    "max_min_fairness_water_filling",
    "max_min_fairness_water_filling+ss",
    "hierarchical",
    "hierarchical+ss",
]


def scenario_scheduler(
    name: str, policy: Optional[str] = None, aggregation: Optional[str] = None
) -> ClusterScheduler:
    """A fresh scheduler of scenario ``name`` with no job submitted (also a restore target).

    ``policy`` replaces the scenario's own policy spec and ``aggregation`` its
    configuration's aggregation mode (same cluster).
    """
    recorded_policy, config, per_type, _multi_worker = SCENARIOS[name]
    policy = recorded_policy if policy is None else policy
    if aggregation is not None:
        config = replace(config, aggregation=aggregation)
    cluster = ClusterSpec.from_counts({kind: per_type for kind in ("v100", "p100", "k80")})
    return ClusterScheduler(policy, cluster, oracle=ThroughputOracle(), config=config)


def run_scenario(
    name: str,
    until: float = float("inf"),
    policy: Optional[str] = None,
    aggregation: Optional[str] = None,
) -> ClusterScheduler:
    """A scheduler that has replayed scenario ``name`` up to ``until``.

    ``policy`` and ``aggregation`` are as for :func:`scenario_scheduler`
    (same trace and cluster).
    """
    scheduler = scenario_scheduler(name, policy, aggregation)
    generator = TraceGenerator(
        ThroughputOracle(), TraceGeneratorConfig(multi_worker=SCENARIOS[name][3])
    )
    for job in generator.generate_continuous(num_jobs=14, jobs_per_hour=6.0, seed=5).jobs:
        scheduler.submit(job)
    return scheduler.run_until(until)

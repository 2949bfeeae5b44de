"""Seeded round-mechanism runs whose results are pinned in ``data/round_fingerprints.json``.

The JSON holds :func:`fingerprint` of ``run_scenario(name).result()`` for
every scenario.  A refactor of the round *mechanism* (priorities, Algorithm 1,
placement, accounting) must reproduce it.  The allocations the mechanism is
fed are LAS vertices, though, and the LAS optimum is not unique (time above
the fair minimum can go to any job), so the file also pins how the LP layer
carries its basis from one re-allocation to the next: a change there — or
another HiGHS build — may move every number in it.  Re-record with
``python tests/scheduler/round_fingerprint_scenarios.py --record``.

``round_fingerprints_cold.json`` is the recording from before the basis
survived row edits (made on the scalar ``PriorityTracker`` / ``RoundScheduler``
/ ``Placer``, reproduced exactly by the dense-array mechanism).  It is never
re-recorded; tests hold today's runs to what no tie-break may move in it.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Optional

from repro.cluster import ClusterSpec
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.scheduler.metrics import SimulationResult
from repro.workloads import ThroughputOracle, TraceGenerator, TraceGeneratorConfig

RECORDED = Path(__file__).parent / "data" / "round_fingerprints.json"
RECORDED_COLD = Path(__file__).parent / "data" / "round_fingerprints_cold.json"

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
#: by the ``_solve_milp`` count test.  No fingerprint is recorded for
#: these: when identical jobs tie, the Appendix A.1 optimum is not unique.
WATER_FILLING_SPECS = [
    "max_min_fairness_water_filling",
    "max_min_fairness_water_filling+ss",
    "hierarchical",
    "hierarchical+ss",
]


def load_recorded(path: Path = RECORDED) -> Dict[str, Any]:
    return json.loads(path.read_text(encoding="utf-8"))


def run_scenario(
    name: str,
    until: float = float("inf"),
    policy: Optional[str] = None,
    aggregation: Optional[str] = None,
) -> ClusterScheduler:
    """A scheduler that has replayed scenario ``name`` up to ``until``.

    ``policy`` replaces the scenario's own policy spec and ``aggregation`` its
    configuration's aggregation mode (same trace and cluster).
    """
    recorded_policy, config, per_type, multi_worker = SCENARIOS[name]
    policy = recorded_policy if policy is None else policy
    if aggregation is not None:
        config = replace(config, aggregation=aggregation)
    oracle = ThroughputOracle()
    generator = TraceGenerator(oracle, TraceGeneratorConfig(multi_worker=multi_worker))
    trace = generator.generate_continuous(num_jobs=14, jobs_per_hour=6.0, seed=5)
    cluster = ClusterSpec.from_counts({kind: per_type for kind in ("v100", "p100", "k80")})
    scheduler = ClusterScheduler(policy, cluster, oracle=oracle, config=config)
    for job in trace.jobs:
        scheduler.submit(job)
    scheduler.run_until(until)
    return scheduler


def fingerprint(result: SimulationResult) -> Dict[str, Any]:
    """The schedule-determined part of a result, as JSON-ready data."""
    records = sorted(result.records.items())
    return {
        "num_rounds": result.num_rounds,
        "num_policy_recomputations": result.num_policy_recomputations,
        "end_time": result.end_time,
        "total_cost_dollars": result.total_cost_dollars,
        "busy_worker_seconds": dict(result.busy_worker_seconds),
        "checkpoint_worker_seconds": dict(result.checkpoint_worker_seconds),
        "preemptions": {str(job_id): record.preemptions for job_id, record in records},
        "completion_time": {str(job_id): record.completion_time for job_id, record in records},
        "cost_dollars": {str(job_id): record.cost_dollars for job_id, record in records},
        "first_allocation_time": {
            str(job_id): record.first_allocation_time for job_id, record in records
        },
        "accelerator_seconds": {
            str(job_id): dict(sorted(record.accelerator_seconds.items()))
            for job_id, record in records
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help=f"rewrite {RECORDED.name}")
    if not parser.parse_args().record:
        parser.error("nothing to do without --record")
    recording = {name: fingerprint(run_scenario(name).result()) for name in SCENARIOS}
    RECORDED.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recording)} scenarios into {RECORDED}")


if __name__ == "__main__":
    main()

"""Seeded ``+ss`` churn runs whose allocations are pinned in ``data/churn_fingerprints.json``.

The JSON was recorded from the commit *before* the per-term dict LP assembly
was deleted — where ``tests/core/test_lp_vectorized.py`` still proved the dict
and columnar paths bit-identical on exactly this sequence — by calling
:func:`churn_fingerprints` for every spec in :data:`SS_POLICY_SPECS`.  It only
needs re-recording when a policy's LP changes on purpose; a refactor of the
assembly or solver layers must reproduce it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.cluster import ClusterSpec
from repro.core import make_policy
from repro.core.allocation import Allocation
from repro.core.allocation_engine import AllocationEngine
from repro.core.problem import PolicyProblem
from repro.workloads import ColocationModel, ThroughputOracle, TraceGenerator

RECORDED = Path(__file__).parent / "data" / "churn_fingerprints.json"

#: Every LP/fractional-program policy from the registry, with space sharing.
SS_POLICY_SPECS = [
    "max_min_fairness+ss",
    "max_min_fairness+ss@agnostic",
    "fifo+ss",
    "makespan+ss",
    "finish_time_fairness+ss",
    "shortest_job_first+ss",
    "max_total_throughput+ss",
    "min_cost+ss",
    "min_cost_slo+ss",
]


def load_recorded() -> Dict[str, Any]:
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def churn_problems(
    oracle: ThroughputOracle, num_jobs: int = 16, num_events: int = 6, seed: int = 7
) -> List[Tuple[PolicyProblem, list]]:
    """A problem sequence plus per-step deltas from the engine under churn."""
    trace = TraceGenerator(oracle).generate_static(num_jobs=num_jobs + num_events, seed=seed)
    jobs = list(trace.jobs)
    spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
    engine = AllocationEngine(
        oracle, space_sharing=True, colocation_model=ColocationModel(oracle)
    )
    engine.add_jobs(jobs[:num_jobs])
    active = {job.job_id: job for job in jobs[:num_jobs]}
    steps = []
    for event in range(num_events + 1):
        if event > 0:
            engine.remove_job(jobs[event - 1].job_id)
            del active[jobs[event - 1].job_id]
            newcomer = jobs[num_jobs + event - 1]
            engine.add_job(newcomer)
            active[newcomer.job_id] = newcomer
        problem = PolicyProblem(
            jobs=dict(active),
            throughputs=engine.matrix(),
            cluster_spec=spec,
            steps_remaining={j: job.total_steps * 0.8 for j, job in active.items()},
            time_elapsed={j: 120.0 * (i + 1) for i, j in enumerate(sorted(active))},
        )
        steps.append((problem, engine.drain_deltas()))
    return steps


def session_allocations(policy_spec: str, steps) -> List[Allocation]:
    """One live session fed the churn sequence: the allocation after each step."""
    policy = make_policy(policy_spec)
    session = None
    allocations = []
    for problem, deltas in steps:
        if session is None:
            session = policy.session(problem)
        else:
            session.apply(deltas)
        allocations.append(session.solve(problem))
    return allocations


def allocation_fingerprint(allocation: Allocation) -> Dict[str, List[float]]:
    """Every non-zero allocation row, keyed by its combination, as JSON-ready data."""
    return {
        "-".join(str(job_id) for job_id in combination): allocation.row(combination).tolist()
        for combination in allocation.combinations
        if allocation.row(combination).any()
    }


def churn_fingerprints(policy_spec: str, steps) -> List[Dict[str, List[float]]]:
    return [allocation_fingerprint(a) for a in session_allocations(policy_spec, steps)]

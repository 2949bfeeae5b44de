"""Figure 13: round-duration sweep converging onto the continuous event loop.

(a) Average JCT of the heterogeneity-aware LAS policy as the round length
grows from 6 to 48 minutes: longer rounds give the mechanism fewer chances to
course-correct, so JCT degrades.
(b) The 6-minute round mechanism compared against an "ideal" fluid execution
that gives every job exactly its computed allocation continuously.

The sweep extends past the paper's figure down to the limit itself: after the
round durations it runs ``continuous`` mode (the event loop that re-solves at
every arrival/completion instant) and ``ideal`` (its zero-overhead special
case).  Shrinking rounds must converge onto the continuous result, and the
allocation-staleness metric must fall monotonically with the re-allocation
granularity — exactly zero for continuous mode.  Per-config JCTs, staleness
and the wall time of the replay (total and per round — per event in the two
fluid modes) land in ``BENCH_fig13.json`` (override with ``REPRO_BENCH_JSON``)
for the CI perf-trajectory artifact; the file is committed, beside the wall
times of the last commit whose rounds built one object per pick.
"""

from __future__ import annotations

import json
import os
import time

from conftest import scaled

from repro.harness import format_series, run_policy_on_trace, steady_state_job_ids
from repro.simulator import SimulatorConfig

#: Descending: each halving of the round duration is one step closer to the
#: continuous limit.
_ROUND_DURATIONS = [2880.0, 1440.0, 720.0, 360.0]
#: ``(num_rounds, wall_seconds)`` of the same replays at the last commit whose
#: rounds built one object per pick (3615035): medians of five runs on a
#: scratch clone, alternating with the index-native code (whose medians then
#: read 0.0429 / 0.0519 / 0.0683 / 0.0998 s for the four round durations —
#: 65 instead of 94 us per 360 s round, at most six picks a round on this
#: 2x3-GPU cluster — and 0.0393 / 0.0382 s for the two fluid modes, which run
#: no round).  Written into the artifact beside the live numbers; only
#: meaningful at ``BENCH_SCALE == 1``.
_WALL_AT_PARENT = {
    "2880.0": (195, 0.0438),
    "1440.0": (387, 0.0588),
    "720.0": (772, 0.0894),
    "360.0": (1540, 0.1447),
    "continuous": (35, 0.0386),
    "ideal": (35, 0.0404),
}


def _run(oracle, bench_cluster, single_worker_generator):
    trace = single_worker_generator.generate_continuous(
        num_jobs=scaled(18), jobs_per_hour=4.0, seed=2
    )
    window = steady_state_job_ids(trace)

    def measure(config):
        start = time.perf_counter()
        result = run_policy_on_trace(
            "max_min_fairness", trace, bench_cluster, oracle=oracle, config=config
        )
        wall_seconds = time.perf_counter() - start
        return {
            "num_rounds": result.num_rounds,
            "wall_seconds": wall_seconds,
            "wall_us_per_round": 1e6 * wall_seconds / result.num_rounds,
            "avg_jct_hours": result.average_jct_hours(window),
            "mean_staleness_seconds": result.mean_allocation_staleness_seconds(),
            "avg_time_to_first_allocation_seconds": (
                result.average_time_to_first_allocation_seconds()
            ),
            "num_solves": result.num_policy_recomputations,
        }

    by_round = {
        duration: measure(SimulatorConfig(round_duration_seconds=duration))
        for duration in _ROUND_DURATIONS
    }
    continuous = measure(SimulatorConfig(mode="continuous"))
    ideal = measure(SimulatorConfig(mode="ideal"))
    return by_round, continuous, ideal


def _write_artifact(by_round, continuous, ideal) -> str:
    """Dump the per-config sweep points as JSON for the CI artifact."""
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_fig13.json")
    payload = {
        "policy": "max_min_fairness",
        "round": {str(duration): point for duration, point in by_round.items()},
        "continuous": continuous,
        "ideal": ideal,
        "wall_at_parent": {
            name: {
                "num_rounds": num_rounds,
                "wall_seconds": wall_seconds,
                "wall_us_per_round": round(1e6 * wall_seconds / num_rounds, 1),
            }
            for name, (num_rounds, wall_seconds) in _WALL_AT_PARENT.items()
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path


def bench_fig13_round_duration(benchmark, oracle, bench_cluster, single_worker_generator):
    by_round, continuous, ideal = benchmark.pedantic(
        _run, args=(oracle, bench_cluster, single_worker_generator), rounds=1, iterations=1
    )
    jct = {duration: point["avg_jct_hours"] for duration, point in by_round.items()}
    shortest = min(_ROUND_DURATIONS)
    longest = max(_ROUND_DURATIONS)
    print()
    print(
        format_series(
            "Figure 13a: Gavel LAS, avg JCT vs round duration",
            list(jct),
            list(jct.values()),
            x_label="round (s)",
            y_label="avg JCT (hrs)",
        )
    )
    print(
        f"\nFigure 13b: mechanism ({shortest:.0f}s rounds) = {jct[shortest]:.1f} hrs, "
        f"continuous event loop = {continuous['avg_jct_hours']:.1f} hrs, "
        f"ideal fluid execution = {ideal['avg_jct_hours']:.1f} hrs "
        f"({jct[shortest] / ideal['avg_jct_hours']:.3f}x)"
    )
    print(
        "mean allocation staleness: "
        + ", ".join(
            f"{duration:.0f}s rounds = {point['mean_staleness_seconds']:.0f}s"
            for duration, point in sorted(by_round.items())
        )
        + f", continuous = {continuous['mean_staleness_seconds']:.0f}s"
    )
    path = _write_artifact(by_round, continuous, ideal)
    print(f"wrote {path}")
    benchmark.extra_info["jct_360s_over_ideal"] = round(
        jct[shortest] / ideal["avg_jct_hours"], 4
    )
    benchmark.extra_info["jct_2880s_over_ideal"] = round(
        jct[longest] / ideal["avg_jct_hours"], 4
    )
    benchmark.extra_info["continuous_over_ideal"] = round(
        continuous["avg_jct_hours"] / ideal["avg_jct_hours"], 4
    )

    # Shape: the 6-minute round mechanism is close to ideal, and very long
    # rounds are no better than short ones.
    assert jct[shortest] <= ideal["avg_jct_hours"] * 1.35
    assert jct[longest] >= jct[shortest] * 0.9

    # The continuous event loop is the round mechanism's limit: its mean JCT
    # is no worse than the shortest-round config's, and it coincides with
    # ideal (same code path, empty control heap).
    assert continuous["avg_jct_hours"] <= jct[shortest]
    assert continuous["avg_jct_hours"] == ideal["avg_jct_hours"]

    # Staleness falls with re-allocation granularity and hits exactly zero
    # when re-solves coincide with the churn events themselves.
    assert continuous["mean_staleness_seconds"] == 0.0
    assert 0.0 < by_round[shortest]["mean_staleness_seconds"]
    assert (
        by_round[shortest]["mean_staleness_seconds"]
        < by_round[longest]["mean_staleness_seconds"]
    )

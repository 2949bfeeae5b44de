"""End-to-end benchmark of ``ClusterScheduler``: the one command.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace 0|1] [--scale X] [--out FILE]

Replays seeded workloads (``workloads.py``) through the public scheduler API,
one fresh child process per replay (``replay.py``), strictly one at a time.
Prints every metric by name with its unit, checks that the outputs are
correct, and ends with one JSON line per workload:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``--trace 0`` reports the end-to-end metrics (untraced replays plus one
checkpoint replay), ``--trace 1`` the per-layer metrics (traced replays, with
untraced ones beside them for the tracing overhead); without ``--trace`` both
are measured.  Without ``--workload`` all workloads run, their replays
interleaved round-robin so host drift hits them equally.  Metric names, units
and directions are read from ``BENCHMARK.json``, the single list of what this
benchmark reports.  The exit status is non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
RESULT_MARKER = "E2E_RESULT "  # as in replay.py, which this file must not import
#: Fewest untraced replays behind an end-to-end number (the medians' support).
MIN_REPLAYS = 5
#: A replay whose drain probes' quartiles are further apart than this is marked noisy.
NOISY_PROBE_RATIO = 1.10
DEFAULT_SEED = 7


def run_child(workload: str, seed: int, scale: float, kind: str, **options: Any) -> Dict[str, Any]:
    """One replay in a fresh interpreter; returns its measurements."""
    command = [
        sys.executable, str(HERE / "replay.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale), "--kind", kind,
    ]  # fmt: skip
    for option, value in options.items():
        if value is not None:
            command += [f"--{option.replace('_', '-')}", str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    finished = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=True)
    for line in reversed(finished.stdout.splitlines()):
        if line.startswith(RESULT_MARKER):
            return json.loads(line[len(RESULT_MARKER):])
    raise RuntimeError(f"{kind} replay of {workload} printed no result")


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def slowest(seconds: Sequence[float], count: int) -> List[float]:
    """Latencies of the re-allocating steps: the ``count`` slowest, count from ``result()``."""
    return sorted(seconds)[-count:] if count else []


class Samples:
    """Everything measured for one workload in this invocation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.timed: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []
        self.checkpoint: Optional[Dict[str, Any]] = None

    def replays(self) -> List[Dict[str, Any]]:
        extra = [self.checkpoint] if self.checkpoint is not None else []
        return self.timed + self.traced + extra

    def end_to_end(self, timings: str = "ref") -> Dict[str, float]:
        """The end-to-end metrics in reference-machine time, or ``"raw"`` host time."""
        checkpoint = self.checkpoint
        assert checkpoint is not None
        drains = [replay[timings]["step_s"] for replay in self.timed]
        reallocs = [
            seconds
            for replay, drain in zip(self.timed, drains)
            for seconds in slowest(drain, replay["outcome"]["reallocs"])
        ]
        return {
            "setup_s": statistics.median(
                replay[timings]["setup_s"][0] for replay in self.timed + [checkpoint]
            ),
            "jobs_per_s": statistics.median(
                replay["outcome"]["completed"] / sum(drain)
                for replay, drain in zip(self.timed, drains)
            ),
            "step_p50_ms": percentile([s for drain in drains for s in drain], 0.50) * 1e3,
            "realloc_p50_ms": percentile(reallocs, 0.50) * 1e3,
            "realloc_p90_ms": percentile(reallocs, 0.90) * 1e3,
            "peak_rss_mb": statistics.median(replay["peak_rss_mb"] for replay in self.timed),
            "snapshot_ms": statistics.mean(checkpoint[timings]["snapshot_ms"]),
            "restore_s": statistics.median(checkpoint[timings]["restore_s"]),
            "avg_jct_hours": self.timed[0]["outcome"]["avg_jct_hours"],
        }

    def per_layer(self) -> Dict[str, float]:
        # Busy seconds are scaled to the reference machine like every timing.
        layers = {
            name: statistics.median(
                replay["layers"][name] * (replay["drain_factor"] if name.endswith("_s") else 1.0)
                for replay in self.traced
            )
            for name in self.traced[0]["layers"]
        }
        traced_drain = statistics.median(sum(replay["ref"]["step_s"]) for replay in self.traced)
        untraced_drain = statistics.median(sum(replay["ref"]["step_s"]) for replay in self.timed)
        layers["bench.trace_overhead_ratio"] = traced_drain / untraced_drain
        layers["bench.span_count"] = self.traced[0]["span_count"]
        layers["bench.calibration_ms"] = statistics.median(
            probe for replay in self.replays() for probe in replay["probes_ms"]
        )
        return layers

    def check(self) -> Dict[str, Any]:
        """Count operations attempted and failed; see the README for the list."""
        replays = self.replays()
        reference = replays[0]["outcome"]
        failures: List[str] = []
        attempted = 0
        for replay in replays:
            attempted += replay["jobs"] + 2
            if replay["incomplete"]:
                failures += [f"{replay['kind']}: job left incomplete"] * replay["incomplete"]
            if not 0.0 < replay["outcome"]["utilization"] <= 1.0 + 1e-9:
                failures.append(f"{replay['kind']}: utilization out of (0, 1]")
            if replay["outcome"] != reference:
                failures.append(f"{replay['kind']}: outcome differs from the first replay")
        lp_solves = {replay["layers"]["solver.lp.solves"] for replay in self.traced}
        if self.traced:
            attempted += 1
            if len(lp_solves) != 1:
                failures.append(f"traced: solver.lp.solves differs across replays: {lp_solves}")
        if self.checkpoint is not None:
            attempted += 1
            if not self.checkpoint["twin_equal"]:
                failures.append("checkpoint: restored twin diverged from the uninterrupted run")
        return {"attempted": attempted, "failed": len(failures), "failures": failures}

    def detail(self) -> Dict[str, Any]:
        """Raw host time, spread and sample counts behind the reported medians."""
        outcome = dict(self.timed[0]["outcome"])
        del outcome["completion_times"]
        noisy = 0
        for replay in self.timed:
            q1, _, q3 = statistics.quantiles(replay["probes_ms"], n=4)
            noisy += q3 / q1 > NOISY_PROBE_RATIO
        drains = {
            timings: [sum(replay[timings]["step_s"]) for replay in self.timed]
            for timings in ("raw", "ref")
        }
        return {
            "outcome": outcome,
            "timed_replays": len(self.timed),
            "noisy_replays": noisy,
            "step_samples": sum(len(replay["raw"]["step_s"]) for replay in self.timed),
            "realloc_samples": sum(replay["outcome"]["reallocs"] for replay in self.timed),
            "raw_end_to_end": self.end_to_end("raw") if self.checkpoint else None,
            "raw_drain_s": quartiles(drains["raw"]),
            "drain_s": quartiles(drains["ref"]),
            "probe_ms": quartiles([p for replay in self.timed for p in replay["probes_ms"]]),
        }


def collect(
    names: Sequence[str],
    seed: int,
    seconds: float,
    scale: float,
    want_e2e: bool,
    want_layers: bool,
    spans_stem: Optional[Path],
) -> List[Samples]:
    """Run the replays: untraced (and traced) round-robin, then checkpoints."""
    runs = [Samples(name) for name in names]
    min_replays = MIN_REPLAYS if want_e2e else 2
    started = perf_counter()
    while len(runs[0].timed) < min_replays or perf_counter() - started < seconds * len(runs):
        for run in runs:
            run.timed.append(run_child(run.name, seed, scale, "timed"))
            if want_layers:
                spans = f"{spans_stem}.{run.name}.spans.jsonl" if spans_stem else None
                run.traced.append(
                    run_child(
                        run.name, seed, scale, "traced",
                        total_steps=run.timed[0]["outcome"]["steps"], spans=spans,
                    )  # fmt: skip
                )
    if want_e2e:
        for run in runs:
            run.checkpoint = run_child(
                run.name, seed, scale, "checkpoint", total_steps=run.timed[0]["outcome"]["steps"]
            )
    return runs


def report(
    run: Samples, contract: Dict[str, Any], want_e2e: bool, want_layers: bool
) -> Dict[str, Any]:
    """Print one workload's metrics and its result line; returns the full record."""
    measured: Dict[str, float] = {}
    declared: List[Dict[str, Any]] = []
    if want_e2e:
        measured.update(run.end_to_end())
        declared += contract["end_to_end"]
    if want_layers:
        measured.update(run.per_layer())
        declared += contract["per_layer"]
    metrics = {
        metric["name"]: {"value": float(measured[metric["name"]]), "unit": metric["unit"]}
        for metric in declared
    }
    checks = run.check()
    print(f"== {run.name}")
    for name, metric in metrics.items():
        print(f"{run.name:16s} {name:52s} {metric['value']:14.6g} {metric['unit']}")
    share = checks["failed"] / checks["attempted"]
    print(f"{run.name:16s} {'failed_share':52s} {share:14.6g} ratio")
    for failure in checks["failures"]:
        print(f"{run.name:16s} FAILED {failure}")
    result = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return {**result, "failures": checks["failures"], "detail": run.detail()}


def main(argv: Optional[List[str]] = None) -> int:
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload_names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies num_jobs only")
    parser.add_argument("--out", type=Path, default=None, help="detail JSON; spans go beside it")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else workload_names
    spans_stem = args.out.with_suffix("") if args.out else None
    want_e2e, want_layers = args.trace != 1, args.trace != 0
    runs = collect(
        names, args.seed, args.seconds, args.scale, want_e2e, want_layers, spans_stem
    )
    records = {run.name: report(run, contract, want_e2e, want_layers) for run in runs}
    if args.out:
        document = {"seed": args.seed, "scale": args.scale, "workloads": records}
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0 if all(record["correct"] for record in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

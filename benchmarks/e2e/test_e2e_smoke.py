"""Smoke test of the end-to-end benchmark at a tiny size.

Replays every workload in-process (``--scale`` shrinks ``num_jobs`` only), so
the whole file runs in seconds; one run of the command, through real child
processes, checks the result line the benchmark contract asks for.  Nothing
here asserts a timing.
"""

from __future__ import annotations

import json
import math

import pytest

import replay
import run
import tracing
import workloads

SCALE = 0.1
SEED = 3
CONTRACT = json.loads((run.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names(section: str) -> list:
    return [metric["name"] for metric in CONTRACT[section]]


def test_contract_lists_the_workloads_defined_here() -> None:
    assert [entry["name"] for entry in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_named_metric_is_reported_and_checks_pass(name: str) -> None:
    samples = run.Samples(name)
    samples.timed.append(replay.replay(name, SEED, scale=SCALE))
    steps = samples.timed[0]["outcome"]["steps"]
    samples.checkpoint = replay.replay(
        name, SEED, scale=SCALE, kind="checkpoint", total_steps=steps
    )
    samples.traced.append(
        replay.replay(name, SEED, scale=SCALE, kind="traced", total_steps=steps)
    )

    end_to_end, per_layer = samples.end_to_end(), samples.per_layer()
    assert sorted(end_to_end) == sorted(_names("end_to_end"))
    assert sorted(per_layer) == sorted(_names("per_layer"))
    for metric, value in {**end_to_end, **per_layer}.items():
        assert math.isfinite(value), metric
    assert all(value > 0 for value in end_to_end.values())

    # Tracing must not change what the scheduler decides.
    assert samples.traced[0]["outcome"] == samples.timed[0]["outcome"]
    assert samples.checkpoint["twin_equal"] is True
    checks = samples.check()
    assert checks["failures"] == []
    assert checks["attempted"] > 0

    layers = samples.traced[0]["layers"]
    assert layers["scheduler.service.steps"] == steps
    round_mode = workloads.WORKLOADS[name].mode == "round"
    assert (layers["scheduler.mechanism.rounds"] > 0) == round_mode


def test_tracer_puts_every_method_back() -> None:
    targets = tracing.wrapped_attributes()
    assert len(targets) > 30
    before = [vars(owner)[attribute] for owner, attribute in targets]
    with tracing.Tracer():
        during = [vars(owner)[attribute] for owner, attribute in targets]
    after = [vars(owner)[attribute] for owner, attribute in targets]
    assert all(original is not wrapped for original, wrapped in zip(before, during))
    assert all(original is restored for original, restored in zip(before, after))


def test_command_prints_the_contract_result_line(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    monkeypatch.setattr(run, "MIN_REPLAYS", 2)  # three child processes instead of six
    status = run.main(
        ["--workload", "churn_tour", "--seed", str(SEED), "--seconds", "0", "--trace", "0",
         "--scale", str(SCALE)]  # fmt: skip
    )
    assert status == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _names("end_to_end")
    for metric in CONTRACT["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]

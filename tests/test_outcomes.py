"""Every pinned scenario reproduces its entry in ``data/outcomes.json`` (see ``tests/outcomes.py``).

Each scenario runs once and is then checked part by part: what it did (a
scheduler's result fingerprint and step count, or a churn session's
allocations), the calls every HiGHS model received, and — for a scheduler —
that restoring the snapshot taken at ``steps // 2`` rebuilds models that
equal live ones.
"""

import functools

import pytest

from repro.core.min_cost import MinCostWithSLOsSession

from tests.outcomes import SCENARIOS, SCHEDULERS, load_recorded, mismatches, observe

RECORDED = load_recorded()


@functools.lru_cache(maxsize=None)
def _observed(scenario):
    """One run of ``scenario``; a scheduler snapshots at half its recorded step count."""
    recorded = RECORDED[scenario]
    return observe(scenario, snapshot_at=recorded["steps"] // 2 if "steps" in recorded else None)


def test_every_scenario_is_recorded():
    assert sorted(RECORDED) == SCENARIOS


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_outcome_matches_recording(scenario):
    """Job records and step count (a churn run: every allocation row), floats to 1e-9."""
    observed, recorded = _observed(scenario), RECORDED[scenario]
    parts = ("outcome", "steps") if scenario in SCHEDULERS else ("allocations",)
    assert not mismatches(
        {part: observed[part] for part in parts}, {part: recorded[part] for part in parts}
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_calls_match_recording(scenario):
    """Every HiGHS model, in creation order, receives the recorded calls: counts and digest."""
    assert not mismatches(_observed(scenario)["models"], RECORDED[scenario]["models"])


@pytest.mark.parametrize("scenario", sorted(SCHEDULERS))
def test_restore_rebuilds_models_equal_to_live_ones(scenario):
    """The midpoint snapshot restored on a fresh scheduler: each rebuilt model was a live one."""
    restore = _observed(scenario).get("restore")
    assert restore, "no snapshot was taken, or its restore rebuilt no model"
    assert all(restore), f"rebuilt models equal to a live one: {restore}"


def test_slo_scenario_drives_the_slo_rows(monkeypatch):
    """With SLOs on the trace, achievable SLO rows are added (and dropped) under churn.

    The run without SLOs never adds one, so its calls equal ``min_cost+ss``'s;
    this one's differ.
    """
    added = []
    add_slo_rows = MinCostWithSLOsSession._add_slo_rows

    def recording(session, problem, job_ids):
        added.append(list(job_ids))
        return add_slo_rows(session, problem, job_ids)

    monkeypatch.setattr(MinCostWithSLOsSession, "_add_slo_rows", recording)
    observed = observe("churn/min_cost_slo+ss/job/slos")
    assert any(added), "no step added an SLO row"
    digests = [model["sha256"] for model in observed["models"]]
    assert digests != [model["sha256"] for model in RECORDED["churn/min_cost+ss/job"]["models"]]

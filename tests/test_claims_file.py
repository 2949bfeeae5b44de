"""``benchmarks/BENCH_claims.json``: every performance claim as a committed before/after number.

Each entry holds the commit, workload, scale, seed, metric, the parent's and
the change's medians over alternating pairs, the pairs won of the pairs run
and the parent's inter-quartile range.  Entries copied from ``CHANGES.md``
after the fact are marked ``backfilled`` and may hold ``null`` where the
log gives no number; every other entry names a workload and a metric the
benchmark (``BENCHMARK.json``) defines, and carries every number.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CLAIMS = json.loads((ROOT / "benchmarks" / "BENCH_claims.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

FIELDS = {
    "commit", "workload", "scale", "seed", "metric", "parent_median", "change_median",
    "pairs_won", "pairs_run", "parent_iqr", "backfilled",
}  # fmt: skip
NUMBERS = ("parent_median", "change_median", "parent_iqr")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def test_there_are_claims():
    assert CLAIMS["claims"]
    assert any(not claim["backfilled"] for claim in CLAIMS["claims"])


@pytest.mark.parametrize("position", range(len(CLAIMS["claims"])))
def test_every_claim_has_its_fields(position):
    claim = CLAIMS["claims"][position]
    assert FIELDS <= claim.keys(), FIELDS - claim.keys()
    assert isinstance(claim["backfilled"], bool)
    seeds = claim["seed"] if isinstance(claim["seed"], list) else [claim["seed"]]
    assert seeds and all(isinstance(seed, int) for seed in seeds)
    assert _is_number(claim["scale"]) and claim["scale"] > 0
    assert isinstance(claim["pairs_run"], int) and 0 < claim["pairs_run"]
    assert isinstance(claim["pairs_won"], int) and 0 <= claim["pairs_won"] <= claim["pairs_run"]
    for name in NUMBERS:
        assert claim[name] is None or _is_number(claim[name]), name


@pytest.mark.parametrize(
    "position", [k for k, claim in enumerate(CLAIMS["claims"]) if not claim["backfilled"]]
)
def test_a_new_claim_names_what_the_benchmark_measures(position):
    claim = CLAIMS["claims"][position]
    assert claim["workload"] in {workload["name"] for workload in BENCHMARK["workloads"]}
    assert claim["metric"] in {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert all(_is_number(claim[name]) for name in NUMBERS)
    assert claim["parent_commit"]

"""Golden tests driving the fixture corpus through the analysis engine.

Every rule has at least one known-bad and one known-good fixture
under ``fixtures/``.  Expected violations are annotated in the fixture
source itself with ``# expect[REP0xx]`` markers on the offending line, so
each fixture is self-documenting; the driver asserts exact agreement (code
and line, as a multiset) and — the part that guards the *rules* — that
disabling a rule makes its fixture findings disappear.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, RuleSettings, analyze_file
from repro.analysis.rules import RULE_CLASSES
from repro.analysis.violations import SUPPRESSION_CODE

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT = re.compile(r"expect\[(REP\d{3})\]")


def permissive_config(**overrides: object) -> AnalysisConfig:
    """Config that runs every rule everywhere (fixtures sit outside the
    library paths the pyproject scoping targets)."""
    return AnalysisConfig(
        root=FIXTURES,
        rules={code: RuleSettings(include=()) for code in RULE_CLASSES},
        **overrides,  # type: ignore[arg-type]
    )


def expected_markers(path: Path) -> Counter:
    expected: Counter = Counter()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for code in _EXPECT.findall(line):
            expected[(code, lineno)] += 1
    return expected


def found_violations(path: Path, config: AnalysisConfig) -> Counter:
    report = analyze_file(path, config)
    return Counter((violation.code, violation.line) for violation in report.violations)


def all_fixtures(suffix: str) -> list[Path]:
    found = sorted(FIXTURES.glob(f"*_{suffix}.py"))
    assert found, f"no *_{suffix}.py fixtures found"
    return found


@pytest.mark.parametrize("path", all_fixtures("bad"), ids=lambda p: p.stem)
def test_bad_fixture_matches_markers(path: Path) -> None:
    expected = expected_markers(path)
    assert expected, f"{path.name} has no expect[...] markers"
    assert found_violations(path, permissive_config()) == expected


@pytest.mark.parametrize("path", all_fixtures("good"), ids=lambda p: p.stem)
def test_good_fixture_is_clean(path: Path) -> None:
    assert found_violations(path, permissive_config()) == Counter()


def _codes_in(path: Path) -> set[str]:
    return {code for code, _line in expected_markers(path)}


@pytest.mark.parametrize("path", all_fixtures("bad"), ids=lambda p: p.stem)
def test_bad_fixture_goes_quiet_when_rules_disabled(path: Path) -> None:
    """The fixture's signal must come from the rules, not the engine."""
    codes = _codes_in(path)
    config = permissive_config(ignore=frozenset(codes))
    remaining = {code for code, _line in found_violations(path, config)}
    assert not remaining & codes


@pytest.mark.parametrize("code", sorted(RULE_CLASSES), ids=str)
def test_every_rule_has_fixture_coverage(code: str) -> None:
    """Each registered rule is exercised by at least one bad-fixture marker."""
    covered = set()
    for path in all_fixtures("bad"):
        covered |= _codes_in(path)
    assert code in covered


def test_pr6_regression_fixture_is_flagged() -> None:
    """The verbatim PR 6 ignored-addRows-status code trips REP001."""
    path = FIXTURES / "rep001_pr6_regression.py"
    found = found_violations(path, permissive_config())
    assert any(code == "REP001" for code, _line in found)


def test_suppression_code_counts_as_covered() -> None:
    """REP000 (suppression hygiene) has dedicated bad/good fixtures."""
    assert _codes_in(FIXTURES / "rep000_bad.py") >= {SUPPRESSION_CODE}

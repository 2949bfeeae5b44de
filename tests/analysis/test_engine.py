"""Engine-level tests: file scanning, suppression lifecycle, path expansion."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import AnalysisConfig, FileReport, RuleSettings, analyze_file, analyze_paths
from repro.analysis.engine import _iter_python_files
from repro.analysis.rules import RULE_CLASSES, Rule
from repro.analysis.violations import PARSE_ERROR_CODE, SUPPRESSION_CODE


def everywhere(root: Path, **overrides: object) -> AnalysisConfig:
    return AnalysisConfig(
        root=root,
        rules={code: RuleSettings(include=()) for code in RULE_CLASSES},
        **overrides,  # type: ignore[arg-type]
    )


def write(tmp_path: Path, name: str, source: str) -> Path:
    target = tmp_path / name
    target.write_text(source)
    return target


def codes(report) -> list:
    return [violation.code for violation in report.violations]


def test_syntax_error_reports_rep999(tmp_path: Path) -> None:
    bad = write(tmp_path, "broken.py", "def f(:\n")
    report = analyze_file(bad, everywhere(tmp_path))
    assert codes(report) == [PARSE_ERROR_CODE]
    assert report.violations[0].line == 1


def test_clean_file_reports_nothing(tmp_path: Path) -> None:
    good = write(tmp_path, "ok.py", "def f(x):\n    return x\n")
    assert codes(analyze_file(good, everywhere(tmp_path))) == []


def test_violation_found_and_suppressed(tmp_path: Path) -> None:
    noisy = write(tmp_path, "noisy.py", "def f(xs=[]):\n    return xs\n")
    report = analyze_file(noisy, everywhere(tmp_path))
    assert codes(report) == ["REP006"]

    quiet = write(
        tmp_path,
        "quiet.py",
        "def f(xs=[]):  # repro: noqa[REP006] -- sentinel never mutated\n    return xs\n",
    )
    assert codes(analyze_file(quiet, everywhere(tmp_path))) == []


def test_unused_suppression_flagged_only_when_rule_active(tmp_path: Path) -> None:
    source = "def f(x):  # repro: noqa[REP006] -- nothing here\n    return x\n"
    target = write(tmp_path, "stale.py", source)
    report = analyze_file(target, everywhere(tmp_path))
    assert codes(report) == [SUPPRESSION_CODE]

    # With REP006 ignored for this run, the engine cannot know whether the
    # suppression would have been used, so it must not cry "unused".
    relaxed = everywhere(tmp_path, ignore=frozenset({"REP006"}))
    assert codes(analyze_file(target, relaxed)) == []


def test_select_limits_rules(tmp_path: Path) -> None:
    both = write(
        tmp_path,
        "both.py",
        "import time\n\n\ndef f(xs=[]):\n    return time.time(), xs\n",
    )
    config = everywhere(tmp_path, select=frozenset({"REP002", SUPPRESSION_CODE}))
    assert codes(analyze_file(both, config)) == ["REP002"]


def test_violations_sorted_by_position(tmp_path: Path) -> None:
    target = write(
        tmp_path,
        "multi.py",
        "import time\n\n\ndef f(xs=[]):\n    return time.time(), xs\n",
    )
    report = analyze_file(target, everywhere(tmp_path))
    assert codes(report) == ["REP006", "REP002"]
    assert [violation.line for violation in report.violations] == [4, 5]


def test_iter_python_files_expands_and_excludes(tmp_path: Path) -> None:
    write(tmp_path, "a.py", "")
    (tmp_path / "__pycache__").mkdir()
    write(tmp_path / "__pycache__", "cached.py", "")
    (tmp_path / "vendored").mkdir()
    write(tmp_path / "vendored", "third_party.py", "")
    (tmp_path / ".hidden").mkdir()
    write(tmp_path / ".hidden", "secret.py", "")
    (tmp_path / "notes.txt").write_text("")

    config = AnalysisConfig(root=tmp_path, exclude=("__pycache__", "vendored/"))
    found = _iter_python_files([tmp_path], config)
    assert [path.name for path in found] == ["a.py"]


def test_explicit_file_bypasses_excludes(tmp_path: Path) -> None:
    excluded_dir = tmp_path / "vendored"
    excluded_dir.mkdir()
    target = write(excluded_dir, "third_party.py", "")
    config = AnalysisConfig(root=tmp_path, exclude=("vendored/",))
    assert _iter_python_files([target], config) == [target]


def test_analyze_paths_aggregates(tmp_path: Path) -> None:
    write(tmp_path, "one.py", "def f(xs=[]):\n    return xs\n")
    write(tmp_path, "two.py", "def g(ys={}):\n    return ys\n")
    violations, files_scanned = analyze_paths([tmp_path], everywhere(tmp_path))
    assert files_scanned == 2
    assert sorted(violation.path for violation in violations) == ["one.py", "two.py"]


MULTILINE = (
    "import time\n"
    "\n"
    "value = max(  # repro: noqa[REP002] -- frozen test input\n"
    "    0.0,\n"
    "    time.time(),\n"
    ")\n"
)


def test_suppression_on_statement_start_covers_continuation_lines(tmp_path: Path) -> None:
    """A noqa on the first line of a wrapped statement suppresses violations
    reported on its continuation lines (the violation node's own lineno)."""
    target = write(tmp_path, "wrapped.py", MULTILINE)
    assert codes(analyze_file(target, everywhere(tmp_path))) == []


def test_suppression_on_interior_line_does_not_match(tmp_path: Path) -> None:
    source = MULTILINE.replace(
        "value = max(  # repro: noqa[REP002] -- frozen test input", "value = max("
    ).replace("    0.0,", "    0.0,  # repro: noqa[REP002] -- wrong line")
    target = write(tmp_path, "wrapped.py", source)
    report = analyze_file(target, everywhere(tmp_path))
    # The violation survives and the misplaced suppression is flagged unused.
    assert sorted(codes(report)) == [SUPPRESSION_CODE, "REP002"]


def test_blanket_suppression_flagged_and_suppresses_nothing(tmp_path: Path) -> None:
    target = write(tmp_path, "blanket.py", "def f(xs=[]):  # repro: noqa\n    return xs\n")
    report = analyze_file(target, everywhere(tmp_path))
    assert codes(report) == [SUPPRESSION_CODE, "REP006"]
    assert "blanket" in report.violations[0].message


def test_rationale_free_suppression_flagged_but_applied(tmp_path: Path) -> None:
    target = write(
        tmp_path, "terse.py", "def f(xs=[]):  # repro: noqa[REP006]\n    return xs\n"
    )
    report = analyze_file(target, everywhere(tmp_path))
    assert codes(report) == [SUPPRESSION_CODE]
    assert "rationale" in report.violations[0].message


def test_malformed_code_in_suppression_flagged(tmp_path: Path) -> None:
    target = write(
        tmp_path, "typo.py", "def f(xs=[]):  # repro: noqa[REP06] -- typo\n    return xs\n"
    )
    report = analyze_file(target, everywhere(tmp_path))
    assert codes(report) == [SUPPRESSION_CODE, "REP006"]
    assert "malformed rule code `REP06`" in report.violations[0].message


def test_unknown_code_in_suppression_flagged(tmp_path: Path) -> None:
    target = write(
        tmp_path, "ghost.py", "def f(x):  # repro: noqa[REP077] -- ghost\n    return x\n"
    )
    report = analyze_file(target, everywhere(tmp_path))
    assert codes(report) == [SUPPRESSION_CODE]
    assert "unknown rule code `REP077`" in report.violations[0].message


def test_ignoring_rep000_turns_off_suppression_hygiene(tmp_path: Path) -> None:
    target = write(tmp_path, "blanket.py", "def f(xs=[]):  # repro: noqa\n    return xs\n")
    config = everywhere(tmp_path, ignore=frozenset({SUPPRESSION_CODE}))
    assert codes(analyze_file(target, config)) == ["REP006"]


def test_undecodable_file_reports_rep999(tmp_path: Path) -> None:
    target = tmp_path / "binary.py"
    target.write_bytes(b"\xff\xfe\x00")
    report = analyze_file(target, everywhere(tmp_path))
    assert codes(report) == [PARSE_ERROR_CODE]
    assert "cannot read file" in report.violations[0].message


def test_parsed_file_report_carries_statement_starts(tmp_path: Path) -> None:
    target = write(tmp_path, "wrapped.py", MULTILINE)
    report = analyze_file(target, everywhere(tmp_path))
    assert report.path == "wrapped.py"
    # Lines 4-6 continue the statement that starts on line 3.
    assert report.statement_starts == {4: 3, 5: 3, 6: 3}


def test_unparsable_file_reports_only_the_parse_error(tmp_path: Path) -> None:
    bad = write(tmp_path, "broken.py", "def f(xs=[]):  # repro: noqa[REP005] -- stale\n    (\n")
    report = analyze_file(bad, everywhere(tmp_path))
    assert codes(report) == [PARSE_ERROR_CODE]
    assert report.statement_starts == {}


def test_analyze_file_uses_given_relative_path(tmp_path: Path) -> None:
    target = write(tmp_path, "bad.py", "def f(xs=[]):\n    return xs\n")
    report = analyze_file(target, everywhere(tmp_path), rel_path="pkg/renamed.py")
    assert report.path == "pkg/renamed.py"
    assert [violation.path for violation in report.violations] == ["pkg/renamed.py"]


def test_file_outside_root_reported_relative_to_it(tmp_path: Path) -> None:
    root = tmp_path / "project"
    root.mkdir()
    outside = write(tmp_path, "stray.py", "def f(xs=[]):\n    return xs\n")
    violations, files_scanned = analyze_paths([outside], everywhere(root))
    assert files_scanned == 1
    assert [violation.path for violation in violations] == ["../stray.py"]


def test_analyze_paths_sees_edits_between_runs(tmp_path: Path) -> None:
    """Every call re-reads the files: nothing from an earlier run is reused."""
    write(tmp_path, "one.py", "def f(xs=[]):\n    return xs\n")
    write(tmp_path, "two.py", "def g(y):\n    return y\n")
    config = everywhere(tmp_path)
    before, _ = analyze_paths([tmp_path], config)
    assert [violation.path for violation in before] == ["one.py"]

    write(tmp_path, "one.py", "def f(xs=None):\n    return xs\n")
    write(tmp_path, "two.py", "def g(ys={}):\n    return ys\n")
    after, _ = analyze_paths([tmp_path], config)
    assert [violation.path for violation in after] == ["two.py"]


def test_analyze_paths_repeated_runs_are_identical(tmp_path: Path) -> None:
    write(tmp_path, "one.py", "import time\n\n\ndef f(xs=[]):\n    return time.time(), xs\n")
    write(tmp_path, "two.py", "def g(y):  # repro: noqa[REP006] -- stale\n    return y\n")
    write(tmp_path, "three.py", "def h(:\n")
    config = everywhere(tmp_path)
    first = analyze_paths([tmp_path], config)
    assert analyze_paths([tmp_path], config) == first
    assert first[1] == 3


def test_analyze_paths_scans_overlapping_arguments_once(tmp_path: Path) -> None:
    target = write(tmp_path, "one.py", "def f(xs=[]):\n    return xs\n")
    violations, files_scanned = analyze_paths(
        [tmp_path, target, tmp_path], everywhere(tmp_path)
    )
    assert files_scanned == 1
    assert [violation.code for violation in violations] == ["REP006"]


def test_unparsable_file_does_not_stop_the_scan(tmp_path: Path) -> None:
    write(tmp_path, "broken.py", "def f(:\n")
    write(tmp_path, "mod.py", "def f(xs=[]):\n    return xs\n")
    violations, files_scanned = analyze_paths([tmp_path], everywhere(tmp_path))
    assert files_scanned == 2
    assert [(violation.path, violation.code) for violation in violations] == [
        ("broken.py", PARSE_ERROR_CODE),
        ("mod.py", "REP006"),
    ]


class TestRuleRegistry:
    def test_registry_entries_are_rule_classes(self) -> None:
        for code, rule_class in RULE_CLASSES.items():
            assert issubclass(rule_class, Rule)
            assert rule_class.code == code

    def test_analyze_file_returns_file_report(self, tmp_path: Path) -> None:
        target = tmp_path / "m.py"
        target.write_text("X = 1\n")
        report = analyze_file(target, AnalysisConfig(root=tmp_path))
        assert isinstance(report, FileReport)
        assert report.path == "m.py"

"""Unit tests for the text and JSON reporters."""

from __future__ import annotations

import json

from repro.analysis.reporting import render_json, render_text
from repro.analysis.violations import Violation

FIRST = Violation("a.py", 3, 5, "REP006", "mutable default")
SECOND = Violation("b.py", 1, 1, "REP002", "wall clock")
THIRD = Violation("b.py", 7, 1, "REP006", "mutable default")


def test_text_clean_report_is_one_summary_line() -> None:
    assert render_text([], 4) == "0 violations in 4 files scanned"


def test_text_report_lists_violations_flake8_style() -> None:
    lines = render_text([FIRST, SECOND], 2).splitlines()
    assert lines[:2] == [
        "a.py:3:5: REP006 mutable default",
        "b.py:1:1: REP002 wall clock",
    ]
    assert lines[2] == ""


def test_text_summary_counts_each_code_in_code_order() -> None:
    summary = render_text([FIRST, SECOND, THIRD], 2).splitlines()[-1]
    assert summary == "3 violations in 2 files scanned (REP002 x1, REP006 x2)"


def test_text_summary_singular_for_one_violation() -> None:
    summary = render_text([FIRST], 1).splitlines()[-1]
    assert summary == "1 violation in 1 files scanned (REP006 x1)"


def test_json_empty_document() -> None:
    assert json.loads(render_json([], 0)) == {
        "files_scanned": 0,
        "violation_count": 0,
        "violations": [],
    }


def test_json_violations_keep_order_and_fields() -> None:
    payload = json.loads(render_json([FIRST, SECOND], 2))
    assert payload["violation_count"] == 2
    assert payload["violations"] == [
        {"path": "a.py", "line": 3, "col": 5, "code": "REP006", "message": "mutable default"},
        {"path": "b.py", "line": 1, "col": 1, "code": "REP002", "message": "wall clock"},
    ]


def test_json_is_indented_with_sorted_keys() -> None:
    rendered = render_json([FIRST], 1)
    assert rendered == json.dumps(json.loads(rendered), indent=2, sort_keys=True)
    assert rendered.splitlines()[1] == '  "files_scanned": 1,'

"""CLI tests: exit codes, report formats, rule listing, bad input handling."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import build_parser, main
from repro.analysis.rules import RULE_CLASSES


@pytest.fixture()
def project(tmp_path: Path) -> Path:
    """A tiny standalone project the CLI can discover a root for."""
    (tmp_path / "pyproject.toml").write_text("[tool.repro.analysis]\n")
    return tmp_path


def write(project: Path, name: str, source: str) -> Path:
    target = project / name
    target.write_text(source)
    return target


def test_clean_run_exits_zero(project: Path, capsys) -> None:
    write(project, "ok.py", "def f(x):\n    return x\n")
    assert main([str(project)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_violations_exit_one(project: Path, capsys) -> None:
    write(project, "bad.py", "def f(xs=[]):\n    return xs\n")
    assert main([str(project)]) == 1
    out = capsys.readouterr().out
    assert "REP006" in out
    assert "bad.py:1:" in out


def test_json_format(project: Path, capsys) -> None:
    write(project, "bad.py", "def f(xs=[]):\n    return xs\n")
    assert main(["--format", "json", str(project)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_scanned"] == 1
    assert payload["violation_count"] == 1
    [violation] = payload["violations"]
    assert violation["code"] == "REP006"
    assert violation["path"] == "bad.py"
    assert violation["line"] == 1


def test_ignore_flag_silences_rule(project: Path) -> None:
    write(project, "bad.py", "def f(xs=[]):\n    return xs\n")
    assert main(["--ignore", "REP006", str(project)]) == 0


def test_select_flag_limits_rules(project: Path) -> None:
    write(project, "bad.py", "def f(xs=[]):\n    return xs\n")
    assert main(["--select", "REP001", str(project)]) == 0
    assert main(["--select", "REP006", str(project)]) == 1


def test_unknown_code_exits_two(project: Path, capsys) -> None:
    write(project, "ok.py", "")
    assert main(["--select", "REP042", str(project)]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_missing_path_exits_two(tmp_path: Path, capsys) -> None:
    assert main([str(tmp_path / "nope.py")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_bad_config_exits_two(tmp_path: Path, capsys) -> None:
    (tmp_path / "pyproject.toml").write_text("[tool.repro.analysis]\nbogus = 1\n")
    (tmp_path / "ok.py").write_text("")
    assert main([str(tmp_path / "ok.py"), "--root", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_list_rules_covers_registry(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULE_CLASSES:
        assert code in out
    assert "REP000" in out


def test_syntax_error_exits_one(project: Path, capsys) -> None:
    write(project, "broken.py", "def f(:\n")
    assert main([str(project)]) == 1
    assert "REP999" in capsys.readouterr().out


def test_build_parser_defaults() -> None:
    options = build_parser().parse_args([])
    assert options.paths == ["."]
    assert options.format == "text"


@pytest.mark.parametrize(
    "option",
    [
        ["--jobs", "2"],
        ["--cache", "cache.json"],
        ["--baseline", "baseline.json"],
        ["--baseline-mode", "write"],
        ["--format", "sarif"],
    ],
    ids=["jobs", "cache", "baseline", "baseline-mode", "format-sarif"],
)
def test_removed_options_are_usage_errors(project: Path, option: list, capsys) -> None:
    """The checker runs one in-process pass; there is no other way to ask for."""
    write(project, "ok.py", "")
    assert main([*option, str(project)]) == 2
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys) -> None:
    assert main(["--help"]) == 0
    assert "--list-rules" in capsys.readouterr().out


def test_codes_are_case_and_whitespace_insensitive(project: Path) -> None:
    write(project, "bad.py", "def f(xs=[]):\n    return xs\n")
    assert main(["--select", " rep006 , ", str(project)]) == 1
    assert main(["--ignore", "rep006,", str(project)]) == 0


def test_unknown_ignore_code_exits_two(project: Path, capsys) -> None:
    write(project, "ok.py", "")
    assert main(["--ignore", "REP006,REP042", str(project)]) == 2
    assert "REP042" in capsys.readouterr().err


def test_select_accepts_suppression_code(project: Path, capsys) -> None:
    # Split so this file's own scan does not read a blanket suppression here.
    write(project, "stale.py", "def f(x):  # repro: " + "noqa\n    return x\n")
    assert main(["--select", "REP000", str(project)]) == 1
    assert "REP000" in capsys.readouterr().out


def test_ignore_flag_adds_to_config_ignore(tmp_path: Path) -> None:
    write(tmp_path, "both.py", "import time\n\n\ndef f(xs=[]):\n    return time.time(), xs\n")
    rules = "[tool.repro.analysis.REP002]\ninclude = []\n"
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro.analysis]\nignore = ["REP006"]\n\n' + rules
    )
    assert main([str(tmp_path)]) == 1
    assert main(["--ignore", "REP002", str(tmp_path)]) == 0


def test_config_flag_roots_paths_at_its_directory(tmp_path: Path, capsys) -> None:
    config_dir = tmp_path / "settings"
    config_dir.mkdir()
    (config_dir / "pyproject.toml").write_text('[tool.repro.analysis]\nignore = ["REP002"]\n')
    write(config_dir, "bad.py", "def f(xs=[]):\n    return xs\n")
    assert main(
        ["--format", "json", "--config", str(config_dir / "pyproject.toml"), str(config_dir)]
    ) == 1
    [violation] = json.loads(capsys.readouterr().out)["violations"]
    assert violation["path"] == "bad.py"


def test_root_flag_sets_reported_paths(project: Path, capsys) -> None:
    package = project / "pkg"
    package.mkdir()
    write(package, "bad.py", "def f(xs=[]):\n    return xs\n")
    assert main(["--format", "json", "--root", str(project), str(package)]) == 1
    [violation] = json.loads(capsys.readouterr().out)["violations"]
    assert violation["path"] == "pkg/bad.py"


def test_text_report_sorted_by_path(project: Path, capsys) -> None:
    write(project, "zeta.py", "def f(xs=[]):\n    return xs\n")
    write(project, "alpha.py", "def g(ys={}):\n    return ys\n")
    assert main([str(project)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:2]] == ["alpha.py", "zeta.py"]
    assert out[-1] == "2 violations in 2 files scanned (REP006 x2)"

"""Unit tests for analysis configuration loading and path scoping."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.config import (
    DEFAULT_EXCLUDE,
    AnalysisConfig,
    RuleSettings,
    find_project_root,
    load_config,
    path_matches,
)
from repro.exceptions import ConfigurationError


def write_pyproject(tmp_path: Path, body: str) -> Path:
    target = tmp_path / "pyproject.toml"
    target.write_text(body)
    return target


class TestPathMatches:
    def test_exact_file(self) -> None:
        assert path_matches("src/a.py", ["src/a.py"])

    def test_directory_prefix(self) -> None:
        assert path_matches("src/repro/core/policy.py", ["src/repro/core"])

    def test_sibling_directory_not_matched(self) -> None:
        assert not path_matches("src/repro/core_ext/x.py", ["src/repro/core"])

    def test_empty_prefixes(self) -> None:
        assert not path_matches("src/a.py", [])


class TestLoadConfig:
    def test_missing_file_yields_defaults(self, tmp_path: Path) -> None:
        config = load_config(tmp_path)
        assert config.exclude == DEFAULT_EXCLUDE
        assert config.select is None
        assert config.ignore == frozenset()
        assert config.rules == {}

    def test_global_keys(self, tmp_path: Path) -> None:
        write_pyproject(
            tmp_path,
            '[tool.repro.analysis]\nexclude = ["vendored"]\nignore = ["REP005"]\n',
        )
        config = load_config(tmp_path)
        assert "vendored" in config.exclude
        assert DEFAULT_EXCLUDE[0] in config.exclude
        assert config.ignore == frozenset({"REP005"})

    def test_rule_table(self, tmp_path: Path) -> None:
        write_pyproject(
            tmp_path,
            "[tool.repro.analysis.REP002]\n"
            'include = ["src"]\n'
            "enabled = true\n"
            'allowed_modules = ["src/repro/scheduler/clock.py"]\n',
        )
        config = load_config(tmp_path)
        settings = config.rule_settings("REP002")
        assert settings.include == ("src",)
        assert settings.options == {"allowed_modules": ["src/repro/scheduler/clock.py"]}

    def test_unknown_top_level_key_rejected(self, tmp_path: Path) -> None:
        write_pyproject(tmp_path, '[tool.repro.analysis]\nexclud = ["typo"]\n')
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_config(tmp_path)

    def test_non_bool_enabled_rejected(self, tmp_path: Path) -> None:
        write_pyproject(tmp_path, '[tool.repro.analysis.REP001]\nenabled = "yes"\n')
        with pytest.raises(ConfigurationError, match="enabled must be a bool"):
            load_config(tmp_path)

    def test_non_string_list_rejected(self, tmp_path: Path) -> None:
        write_pyproject(tmp_path, "[tool.repro.analysis]\nexclude = [1]\n")
        with pytest.raises(ConfigurationError, match="list of strings"):
            load_config(tmp_path)

    def test_invalid_toml_rejected(self, tmp_path: Path) -> None:
        write_pyproject(tmp_path, "[tool.repro.analysis\n")
        with pytest.raises(ConfigurationError, match="invalid TOML"):
            load_config(tmp_path)


class TestCodeEnabled:
    def test_ignore_wins(self) -> None:
        config = AnalysisConfig(root=Path("."), ignore=frozenset({"REP001"}))
        assert not config.code_enabled("REP001")
        assert config.code_enabled("REP002")

    def test_select_restricts(self) -> None:
        config = AnalysisConfig(root=Path("."), select=frozenset({"REP001"}))
        assert config.code_enabled("REP001")
        assert not config.code_enabled("REP002")

    def test_rule_enabled_false(self) -> None:
        config = AnalysisConfig(
            root=Path("."), rules={"REP001": RuleSettings(enabled=False)}
        )
        assert not config.code_enabled("REP001")


class TestScoped:
    def test_rule_defaults_apply(self) -> None:
        config = AnalysisConfig(root=Path("."))
        assert config.scoped("REP004", "src/repro/core/policy.py", ("src/repro/core",), ())
        assert not config.scoped("REP004", "tests/test_x.py", ("src/repro/core",), ())

    def test_config_include_overrides_defaults(self) -> None:
        config = AnalysisConfig(
            root=Path("."), rules={"REP004": RuleSettings(include=())}
        )
        assert config.scoped("REP004", "tests/test_x.py", ("src/repro/core",), ())

    def test_exclude_beats_include(self) -> None:
        config = AnalysisConfig(
            root=Path("."),
            rules={"REP002": RuleSettings(include=("src",), exclude=("src/legacy",))},
        )
        assert config.scoped("REP002", "src/a.py", (), ())
        assert not config.scoped("REP002", "src/legacy/b.py", (), ())


def test_find_project_root(tmp_path: Path) -> None:
    (tmp_path / "pyproject.toml").write_text("")
    nested = tmp_path / "src" / "pkg"
    nested.mkdir(parents=True)
    assert find_project_root(nested) == tmp_path


def test_find_project_root_absent(tmp_path: Path) -> None:
    nested = tmp_path / "src"
    nested.mkdir()
    # May walk up to a real repo above tmp_path or find nothing; either way
    # it must not claim tmp_path itself, which has no pyproject.toml.
    assert find_project_root(nested) != tmp_path

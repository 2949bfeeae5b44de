"""Configuration for the static checker (``[tool.repro.analysis]``).

The checker is configured from ``pyproject.toml`` — found by walking up from
the analyzed paths — with per-rule tables keyed by rule code::

    [tool.repro.analysis]
    exclude = ["tests/analysis/fixtures"]

    [tool.repro.analysis.REP002]
    allowed_modules = ["src/repro/scheduler/clock.py"]

Every rule table accepts ``enabled``/``include``/``exclude`` plus rule-specific
option keys (validated by the rule class itself); ``include``/``exclude`` are
project-root-relative path prefixes.  Unknown top-level keys are rejected so a
typo cannot silently disable a gate.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "DEFAULT_EXCLUDE",
    "AnalysisConfig",
    "RuleSettings",
    "find_project_root",
    "load_config",
    "path_matches",
]

#: Directory names never descended into when expanding directory arguments.
DEFAULT_EXCLUDE: Tuple[str, ...] = (
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    ".benchmarks",
    "build",
    "dist",
)

_GLOBAL_KEYS = frozenset({"exclude", "select", "ignore"})
_RULE_RESERVED_KEYS = frozenset({"enabled", "include", "exclude"})


def path_matches(rel_path: str, prefixes: Sequence[str]) -> bool:
    """Whether a ``/``-separated relative path falls under any prefix.

    A prefix matches the file itself (``src/a.py``) or any directory prefix
    (``src/repro/core`` matches ``src/repro/core/policy.py`` but not
    ``src/repro/core_ext/x.py``).
    """
    for prefix in prefixes:
        cleaned = prefix.strip("/")
        if rel_path == cleaned or rel_path.startswith(cleaned + "/"):
            return True
    return False


@dataclass(frozen=True)
class RuleSettings:
    """Per-rule overrides: activation, path scope, and rule-specific options."""

    enabled: bool = True
    include: Optional[Tuple[str, ...]] = None
    exclude: Optional[Tuple[str, ...]] = None
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved configuration handed to the engine."""

    root: Path
    exclude: Tuple[str, ...] = DEFAULT_EXCLUDE
    select: Optional[FrozenSet[str]] = None
    ignore: FrozenSet[str] = frozenset()
    rules: Mapping[str, RuleSettings] = field(default_factory=dict)

    def rule_settings(self, code: str) -> RuleSettings:
        return self.rules.get(code, _DEFAULT_SETTINGS)

    def code_enabled(self, code: str) -> bool:
        """select/ignore/per-rule-enabled resolution for one rule code."""
        if code in self.ignore:
            return False
        if self.select is not None and code not in self.select:
            return False
        return self.rule_settings(code).enabled

    def scoped(
        self,
        code: str,
        rel_path: str,
        default_include: Sequence[str],
        default_exclude: Sequence[str],
    ) -> bool:
        """Whether a rule applies to ``rel_path`` after include/exclude scoping.

        Per-rule config overrides the rule class's built-in defaults; an empty
        include list means "everywhere".
        """
        settings = self.rule_settings(code)
        include = settings.include if settings.include is not None else tuple(default_include)
        exclude = settings.exclude if settings.exclude is not None else tuple(default_exclude)
        if include and not path_matches(rel_path, include):
            return False
        return not path_matches(rel_path, exclude)


_DEFAULT_SETTINGS = RuleSettings()


def find_project_root(start: Path) -> Optional[Path]:
    """Nearest ancestor of ``start`` (inclusive) containing ``pyproject.toml``."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def _string_tuple(value: Any, *, where: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ConfigurationError(f"{where} must be a list of strings, got {value!r}")
    return tuple(value)


def _parse_rule_table(code: str, table: Mapping[str, Any]) -> RuleSettings:
    enabled = table.get("enabled", True)
    if not isinstance(enabled, bool):
        raise ConfigurationError(f"[tool.repro.analysis.{code}] enabled must be a bool")
    include = (
        _string_tuple(table["include"], where=f"[tool.repro.analysis.{code}] include")
        if "include" in table
        else None
    )
    exclude = (
        _string_tuple(table["exclude"], where=f"[tool.repro.analysis.{code}] exclude")
        if "exclude" in table
        else None
    )
    options = {key: value for key, value in table.items() if key not in _RULE_RESERVED_KEYS}
    return RuleSettings(enabled=enabled, include=include, exclude=exclude, options=options)


def load_config(root: Path, pyproject: Optional[Path] = None) -> AnalysisConfig:
    """Build an :class:`AnalysisConfig` from ``pyproject.toml`` under ``root``.

    A missing file or missing ``[tool.repro.analysis]`` table yields the
    defaults; malformed tables raise :class:`ConfigurationError`.
    """
    source = pyproject if pyproject is not None else root / "pyproject.toml"
    table: Mapping[str, Any] = {}
    if source.is_file():
        with source.open("rb") as handle:
            try:
                document = tomllib.load(handle)
            except tomllib.TOMLDecodeError as error:
                raise ConfigurationError(f"{source}: invalid TOML: {error}") from error
        tool = document.get("tool", {})
        if not isinstance(tool, Mapping):
            raise ConfigurationError(f"{source}: [tool] must be a table")
        repro_tool = tool.get("repro", {})
        if not isinstance(repro_tool, Mapping):
            raise ConfigurationError(f"{source}: [tool.repro] must be a table")
        raw = repro_tool.get("analysis", {})
        if not isinstance(raw, Mapping):
            raise ConfigurationError(f"{source}: [tool.repro.analysis] must be a table")
        table = raw

    exclude = DEFAULT_EXCLUDE
    select: Optional[FrozenSet[str]] = None
    ignore: FrozenSet[str] = frozenset()
    rules: dict[str, RuleSettings] = {}
    for key, value in table.items():
        if key == "exclude":
            exclude = DEFAULT_EXCLUDE + _string_tuple(value, where="[tool.repro.analysis] exclude")
        elif key == "select":
            select = frozenset(_string_tuple(value, where="[tool.repro.analysis] select"))
        elif key == "ignore":
            ignore = frozenset(_string_tuple(value, where="[tool.repro.analysis] ignore"))
        elif key.upper().startswith("REP") and isinstance(value, Mapping):
            rules[key.upper()] = _parse_rule_table(key.upper(), value)
        else:
            raise ConfigurationError(
                f"[tool.repro.analysis] unknown key {key!r}; "
                f"expected {sorted(_GLOBAL_KEYS)} or a REP0xx rule table"
            )
    return AnalysisConfig(root=root, exclude=exclude, select=select, ignore=ignore, rules=rules)

"""File scanner and orchestrator: parse, dispatch rules, apply suppressions.

The engine owns everything rule-agnostic.  It parses each file once and
dispatches AST nodes to the rule instances in a single walk; then it
applies suppressions: a violation on a line with a matching ``repro: noqa``
comment — or whose enclosing multi-line statement *starts* on such a line —
is swallowed and the suppression marked used; suppressions that are
blanket, rationale-free, malformed, or unused come back out as ``REP000``
violations.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.analysis.config import AnalysisConfig, path_matches
from repro.analysis.context import FileContext, build_parent_map, collect_import_aliases
from repro.analysis.rules import RULE_CLASSES
from repro.analysis.rules.base import Rule, handler_node_types
from repro.analysis.suppressions import Suppression, scan_suppressions
from repro.analysis.violations import PARSE_ERROR_CODE, SUPPRESSION_CODE, Violation

__all__ = [
    "FileReport",
    "analyze_file",
    "analyze_paths",
]


@dataclass
class FileReport:
    """Outcome of scanning one file.

    ``violations`` have suppressions applied; ``statement_starts`` maps
    continuation lines to the first line of their statement, where a
    suppression covering them is written.
    """

    path: str
    violations: List[Violation] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    statement_starts: Dict[int, int] = field(default_factory=dict)


def _relative_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return Path(os.path.relpath(path.resolve(), root.resolve())).as_posix()


def _active_rules(config: AnalysisConfig, rel_path: str) -> List[Type[Rule]]:
    active: List[Type[Rule]] = []
    for code, rule_class in RULE_CLASSES.items():
        if not config.code_enabled(code):
            continue
        if not config.scoped(
            code, rel_path, rule_class.default_include, rule_class.default_exclude
        ):
            continue
        active.append(rule_class)
    return active


def _dispatch(tree: ast.Module, rules: Sequence[Rule]) -> None:
    handlers: Dict[str, List[Rule]] = {}
    for rule in rules:
        for node_type in handler_node_types(type(rule)):
            handlers.setdefault(node_type, []).append(rule)
    if not handlers:
        return
    for node in ast.walk(tree):
        for rule in handlers.get(type(node).__name__, ()):
            getattr(rule, f"visit_{type(node).__name__}")(node)


def _statement_start_map(tree: ast.Module) -> Dict[int, int]:
    """Map continuation lines to the first line of their innermost statement.

    A ``repro: noqa`` on the first line of a wrapped statement must suppress
    violations reported on the statement's continuation lines.  Outer
    statements claim their whole extent first, then nested statements
    overwrite their own ranges, so each line maps to the *innermost*
    enclosing statement's start; identity mappings are dropped.
    """
    mapping: Dict[int, int] = {}

    def claim(statements: Iterable[ast.stmt]) -> None:
        for statement in statements:
            end = getattr(statement, "end_lineno", None) or statement.lineno
            for line in range(statement.lineno, end + 1):
                mapping[line] = statement.lineno
            for child_field in ("body", "orelse", "finalbody"):
                claim(getattr(statement, child_field, []))
            for handler in getattr(statement, "handlers", []):
                claim(handler.body)
            for case in getattr(statement, "cases", []):
                claim(case.body)

    claim(tree.body)
    return {line: start for line, start in mapping.items() if line != start}


def _suppression_violations(
    report: FileReport, active_codes: Iterable[str], config: AnalysisConfig
) -> List[Violation]:
    if not config.code_enabled(SUPPRESSION_CODE):
        return []
    active = set(active_codes)
    found: List[Violation] = []

    def emit(line: int, message: str) -> None:
        found.append(
            Violation(path=report.path, line=line, col=1, code=SUPPRESSION_CODE, message=message)
        )

    for suppression in report.suppressions:
        if suppression.blanket:
            emit(
                suppression.line,
                "blanket `repro: noqa` is not allowed; list the codes being "
                "suppressed, with a rationale: `repro: noqa[REP0xx] -- why`",
            )
            continue
        for bad in suppression.malformed_codes:
            emit(suppression.line, f"malformed rule code `{bad}` in suppression")
        if suppression.codes and not suppression.rationale:
            emit(
                suppression.line,
                "suppression without a rationale; append `-- <why this is safe>`",
            )
        for code in suppression.unused_codes():
            if code not in RULE_CLASSES:
                emit(suppression.line, f"suppression names unknown rule code `{code}`")
            elif code in active:
                emit(
                    suppression.line,
                    f"unused suppression: no {code} violation on this line — delete it",
                )
    return found


def _apply_suppressions(
    report: FileReport,
    violations: Iterable[Violation],
    active_codes: Iterable[str],
    config: AnalysisConfig,
) -> List[Violation]:
    """The file's violations minus the suppressed ones, plus REP000 findings."""
    suppressions_by_line = {
        suppression.line: suppression for suppression in report.suppressions
    }
    kept: List[Violation] = []
    for violation in violations:
        suppression = suppressions_by_line.get(violation.line)
        if suppression is None:
            # Violations on a continuation line inherit the suppression on the
            # first line of their enclosing statement.
            start = report.statement_starts.get(violation.line)
            if start is not None:
                suppression = suppressions_by_line.get(start)
        if suppression is not None and suppression.suppresses(violation.code):
            suppression.mark_used(violation.code)
            continue
        kept.append(violation)
    kept.extend(_suppression_violations(report, active_codes, config))
    return sorted(kept, key=Violation.sort_key)


def analyze_file(
    path: Path, config: AnalysisConfig, rel_path: Optional[str] = None
) -> FileReport:
    """Scan one file: parse, run the active rules, apply suppressions.

    An unreadable or unparsable file is reported as one ``REP999``
    violation, with no rules run and no suppressions applied.
    """
    rel = rel_path if rel_path is not None else _relative_path(path, config.root)
    report = FileReport(path=rel)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        report.violations.append(
            Violation(rel, 1, 1, PARSE_ERROR_CODE, f"cannot read file: {error}")
        )
        return report
    lines = source.splitlines()
    report.suppressions = scan_suppressions(lines)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        report.violations.append(
            Violation(rel, error.lineno or 1, 1, PARSE_ERROR_CODE, f"syntax error: {error.msg}")
        )
        return report

    context = FileContext(
        path=path,
        rel_path=rel,
        lines=lines,
        tree=tree,
        config=config,
        parents=build_parent_map(tree),
        aliases=collect_import_aliases(tree),
    )
    rules = [rule_class(context) for rule_class in _active_rules(config, rel)]
    _dispatch(tree, rules)
    for rule in rules:
        rule.finish()
    report.statement_starts = _statement_start_map(tree)
    report.violations = _apply_suppressions(
        report,
        [violation for rule in rules for violation in rule.violations],
        [rule.code for rule in rules],
        config,
    )
    return report


def _iter_python_files(paths: Sequence[Path], config: AnalysisConfig) -> List[Path]:
    """Expand path arguments into a sorted, de-duplicated list of .py files.

    Config excludes apply when *expanding directories*; a file passed
    explicitly is always scanned (that is how the fixture tests drive
    intentionally-bad files that the project config excludes).
    """
    collected: List[Path] = []
    seen: set[Path] = set()

    def add(candidate: Path) -> None:
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            collected.append(candidate)

    # Bare names in the exclude list ("__pycache__") match any path part;
    # entries containing "/" are project-root-relative prefixes.
    name_excludes = {entry for entry in config.exclude if "/" not in entry}
    prefix_excludes = [entry for entry in config.exclude if "/" in entry]
    for path in paths:
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                rel = _relative_path(found, config.root)
                if name_excludes.intersection(found.parts):
                    continue
                if path_matches(rel, prefix_excludes):
                    continue
                if any(part.startswith(".") and len(part) > 1 for part in rel.split("/")):
                    continue
                add(found)
        elif path.suffix == ".py":
            add(path)
    return collected


def analyze_paths(
    paths: Sequence[Path], config: AnalysisConfig
) -> Tuple[List[Violation], int]:
    """Scan files/directories; returns (sorted violations, files scanned)."""
    files = _iter_python_files(paths, config)
    violations = [
        violation for path in files for violation in analyze_file(path, config).violations
    ]
    return sorted(violations, key=Violation.sort_key), len(files)

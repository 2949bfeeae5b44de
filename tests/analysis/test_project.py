"""Unit tests for the whole-program layer: summaries, context, AST surgery.

The per-file :func:`~repro.analysis.project.summarize_module` extraction and
the aggregated :class:`~repro.analysis.project.ProjectContext` are tested
directly on small synthetic modules; the REP011 exhaustiveness rule is then
proven on the *real* ``repro.core.session`` source by AST surgery — deleting
the ``TypeCountChanged`` branch from ``summarize_deltas`` and asserting the
checker catches exactly the bug class PR 6 shipped.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis import FileReport, analyze_file, analyze_paths, load_config
from repro.analysis.config import AnalysisConfig
from repro.analysis.project import (
    ClassSummary,
    DispatchSite,
    ImportRecord,
    ModuleSummary,
    ProjectContext,
    module_name_for,
    summarize_module,
)
from repro.analysis.rules import RULE_CLASSES, ProjectRule, Rule
from repro.analysis.rules.base import AnyRuleClass

REPO_ROOT = Path(__file__).resolve().parents[2]
SESSION_SOURCE = REPO_ROOT / "src" / "repro" / "core" / "session.py"


def summarize(rel_path: str, source: str) -> ModuleSummary:
    return summarize_module(rel_path, ast.parse(textwrap.dedent(source)))


class TestModuleNameFor:
    def test_src_layout_stripped(self) -> None:
        assert module_name_for("src/repro/core/session.py") == "repro.core.session"

    def test_package_init_is_the_package(self) -> None:
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"

    def test_paths_outside_source_roots_keep_prefix(self) -> None:
        assert module_name_for("tests/core/test_x.py") == "tests.core.test_x"


class TestSummaryExtraction:
    def test_imports_with_markers(self) -> None:
        summary = summarize(
            "src/pkg/mod.py",
            """\
            from typing import TYPE_CHECKING

            import os.path
            from pkg.other import helper

            if TYPE_CHECKING:
                from pkg.annotations_only import Hint

            def late() -> None:
                from pkg.deferred import thing
                return thing
            """,
        )
        by_target = {record.target: record for record in summary.imports}
        assert isinstance(by_target["pkg.other"], ImportRecord)
        assert by_target["pkg.other"].names == ("helper",)
        assert not by_target["pkg.other"].type_checking
        assert by_target["pkg.annotations_only"].type_checking
        assert by_target["pkg.deferred"].deferred

    def test_dunder_all_and_union(self) -> None:
        summary = summarize(
            "src/pkg/deltas.py",
            """\
            __all__ = ["Added", "Removed", "Delta"]

            class Added: ...
            class Removed: ...

            Delta = Added | Removed
            """,
        )
        assert summary.dunder_all == ("Added", "Removed", "Delta")
        assert summary.unions["Delta"] == ("pkg.deltas.Added", "pkg.deltas.Removed")

    def test_class_summary_fields_and_self_attrs(self) -> None:
        summary = summarize(
            "src/pkg/state.py",
            """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Snap:
                time: float
                rng_state: bytes

            class Sched:
                def __init__(self) -> None:
                    self._time = 0.0
                    self._rng = object()
            """,
        )
        by_name = {cls.name: cls for cls in summary.classes}
        assert isinstance(by_name["Snap"], ClassSummary)
        assert by_name["Snap"].is_dataclass
        assert by_name["Snap"].dataclass_fields == ("time", "rng_state")
        assert dict(by_name["Sched"].self_attrs) == {"_time": 10, "_rng": 11}

    def test_isinstance_chain_and_match_dispatch(self) -> None:
        summary = summarize(
            "src/pkg/consumer.py",
            """\
            from pkg.deltas import Added, Removed

            def fold(delta):
                if isinstance(delta, Added):
                    return 1
                elif isinstance(delta, Removed):
                    return 2

            def fold_match(delta):
                match delta:
                    case Added():
                        return 1
                    case _:
                        return 0
            """,
        )
        by_kind = {site.kind: site for site in summary.dispatches}
        chain = by_kind["isinstance"]
        assert isinstance(chain, DispatchSite)
        assert chain.scope == "fold"
        assert chain.tested == ("pkg.deltas.Added", "pkg.deltas.Removed")
        assert not chain.has_fallback
        assert by_kind["match"].has_fallback


class TestProjectContext:
    def _context(self) -> ProjectContext:
        impl = summarize(
            "src/pkg/impl.py",
            """\
            __all__ = ["Widget", "Gadget"]

            class Widget: ...
            class Gadget: ...

            Thing = Widget | Gadget
            """,
        )
        init = summarize(
            "src/pkg/__init__.py",
            """\
            from pkg.impl import Gadget, Widget

            __all__ = ["Gadget", "Widget"]
            """,
        )
        consumer = summarize(
            "src/app/consumer.py",
            """\
            from pkg import Widget

            def build() -> Widget:
                return Widget()
            """,
        )
        return ProjectContext([impl, init, consumer])

    def test_resolve_symbol_chases_re_exports(self) -> None:
        context = self._context()
        assert context.resolve_symbol("pkg.Widget") == "pkg.impl.Widget"
        assert context.resolve_symbol("pkg.impl.Widget") == "pkg.impl.Widget"
        assert context.resolve_symbol("unknown.Name") == "unknown.Name"

    def test_union_members_resolved(self) -> None:
        context = self._context()
        assert context.union_members("pkg.impl.Thing") == (
            "pkg.impl.Widget",
            "pkg.impl.Gadget",
        )

    def test_usage_counts_through_any_import_path(self) -> None:
        context = self._context()
        # The consumer imports Widget from the package, not from pkg.impl —
        # canonical-symbol tracking must keep both export sites alive.
        assert context.is_name_used_externally("pkg", "Widget")
        assert context.is_name_used_externally("pkg.impl", "Widget")
        assert not context.is_name_used_externally("pkg", "Gadget")

    def test_find_class_and_bases(self) -> None:
        base = summarize("src/pkg/base.py", "class Base: ...\n")
        child = summarize(
            "src/pkg/child.py",
            """\
            from pkg.base import Base

            class Child(Base): ...
            """,
        )
        context = ProjectContext([base, child])
        found = context.find_class("pkg.child.Child")
        assert found is not None and found[1].name == "Child"
        assert context.class_bases("pkg.child.Child") == ("pkg.base.Base",)


class TestRuleRegistry:
    def test_registry_entries_are_rule_classes(self) -> None:
        rule_class: AnyRuleClass
        for code, rule_class in RULE_CLASSES.items():
            assert issubclass(rule_class, (Rule, ProjectRule))
            assert rule_class.code == code

    def test_analyze_file_returns_file_report(self, tmp_path: Path) -> None:
        target = tmp_path / "m.py"
        target.write_text("X = 1\n")
        report = analyze_file(target, AnalysisConfig(root=tmp_path))
        assert isinstance(report, FileReport)
        assert report.path == "m.py"


# -- AST surgery on the real session module --------------------------------------------


def _without_typecount_branch(source: str) -> str:
    """Delete the ``elif isinstance(delta, TypeCountChanged):`` branch."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
            and len(test.args) == 2
        ):
            continue
        classinfo = test.args[1]
        if isinstance(classinfo, ast.Name) and classinfo.id == "TypeCountChanged":
            start = node.lineno
            end = max(stmt.end_lineno or stmt.lineno for stmt in node.body)
            lines = source.splitlines(keepends=True)
            return "".join(lines[: start - 1] + lines[end:])
    raise AssertionError("session.py has no isinstance(delta, TypeCountChanged) branch")


def _surgery_project(tmp_path: Path, source: str) -> Path:
    project = tmp_path / "proj"
    (project / "app").mkdir(parents=True)
    (project / "pyproject.toml").write_text(
        "[tool.repro.analysis]\n"
        'select = ["REP011"]\n'
        "\n"
        "[tool.repro.analysis.REP011]\n"
        'union = "app.session.PolicyDelta"\n'
    )
    (project / "app" / "session.py").write_text(source)
    return project


def _rep011_findings(project: Path) -> list:
    violations, _files = analyze_paths([project], load_config(project))
    return [violation for violation in violations if violation.code == "REP011"]


class TestDeltaDispatchSurgery:
    """REP011 must catch a registered delta silently dropped by a dispatcher."""

    def test_pristine_session_module_is_exhaustive(self, tmp_path: Path) -> None:
        project = _surgery_project(tmp_path, SESSION_SOURCE.read_text())
        assert _rep011_findings(project) == []

    def test_deleting_typecount_branch_trips_rep011(self, tmp_path: Path) -> None:
        mutated = _without_typecount_branch(SESSION_SOURCE.read_text())
        assert "counts[delta.key] = delta.count" not in mutated
        project = _surgery_project(tmp_path, mutated)
        findings = _rep011_findings(project)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "app/session.py"
        assert "TypeCountChanged" in finding.message
        assert "summarize_deltas" in finding.message

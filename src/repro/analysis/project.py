"""Whole-program context for cross-module (``ProjectRule``) analysis.

The per-file phase extracts one :class:`ModuleSummary` per scanned file — a
small digest of everything the cross-module rules need: the module's imports
(with ``TYPE_CHECKING``/deferred markers), its literal ``__all__``, class
summaries (bases, dataclass fields, ``self._*`` assignments), ``Union`` type
aliases, ``isinstance``/``match`` dispatch chains, and every
externally-resolvable dotted reference.

:class:`ProjectContext` then aggregates the summaries in one pass: a module
table keyed by dotted name, a symbol resolver that chases re-export chains
(``from repro.core.session import JobAdded`` re-exported through
``repro/core/__init__.py`` resolves back to its defining module), a
class-hierarchy map, and a use-table of ``(module, name)`` references for
the dead-export rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "ClassSummary",
    "DispatchSite",
    "ImportRecord",
    "ModuleSummary",
    "ProjectContext",
    "module_name_for",
    "summarize_module",
]

#: Path components stripped when deriving a dotted module name ("src" layout).
_SOURCE_ROOTS = ("src",)


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a project-relative ``/``-separated path.

    ``src/repro/core/session.py`` → ``repro.core.session``;
    ``src/repro/core/__init__.py`` → ``repro.core``; paths outside a source
    root keep their directory prefix (``tests/core/test_x.py`` →
    ``tests.core.test_x``).
    """
    parts = rel_path.split("/")
    if parts and parts[0] in _SOURCE_ROOTS:
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


@dataclass(frozen=True)
class ImportRecord:
    """One import statement edge, as seen from the importing module."""

    target: str  #: absolute dotted module the import names
    names: Tuple[str, ...]  #: from-imported names ("*" possible); () for plain import
    line: int
    type_checking: bool = False  #: inside an ``if TYPE_CHECKING:`` block
    deferred: bool = False  #: inside a function/method body


@dataclass(frozen=True)
class DispatchSite:
    """An ``isinstance`` elif-chain or ``match`` statement over class types."""

    scope: str  #: enclosing function qualname ("<module>" at top level)
    line: int
    col: int
    subject: str  #: source-ish rendering of the dispatched expression
    tested: Tuple[str, ...]  #: resolved dotted names of the types tested
    has_fallback: bool  #: explicit ``else``/``case _``/foreign branch present
    kind: str  #: "isinstance" or "match"


@dataclass(frozen=True)
class ClassSummary:
    """Digest of one class definition."""

    name: str
    line: int
    bases: Tuple[str, ...]  #: resolved dotted base-class names
    is_dataclass: bool
    dataclass_fields: Tuple[str, ...]  #: class-level annotated fields
    self_attrs: Tuple[Tuple[str, int], ...]  #: (attribute, first assignment line)


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project rules need to know about one scanned file."""

    rel_path: str
    module: str
    imports: Tuple[ImportRecord, ...] = ()
    dunder_all: Optional[Tuple[str, ...]] = None
    dunder_all_line: int = 0
    classes: Tuple[ClassSummary, ...] = ()
    unions: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    dispatches: Tuple[DispatchSite, ...] = ()
    references: Tuple[str, ...] = ()  #: resolved dotted names referenced anywhere


class _SummaryExtractor:
    """Single-pass extraction of a :class:`ModuleSummary` from a parsed tree."""

    def __init__(self, rel_path: str, module: str, tree: ast.Module) -> None:
        self.rel_path = rel_path
        self.module = module
        self.tree = tree
        self.aliases: Dict[str, str] = {}
        self.local_defs: Set[str] = set()
        self.imports: List[ImportRecord] = []
        self.dunder_all: Optional[Tuple[str, ...]] = None
        self.dunder_all_line = 0
        self.classes: List[ClassSummary] = []
        self.unions: Dict[str, Tuple[str, ...]] = {}
        self.dispatches: List[DispatchSite] = []
        self.references: Set[str] = set()
        self._seen_ifs: Set[int] = set()

    # -- name resolution -------------------------------------------------------------

    def _collect_top_level_names(self) -> None:
        for statement in self.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.local_defs.add(statement.name)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        self.local_defs.add(target.id)
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                self.local_defs.add(statement.target.id)

    def _resolve_relative(self, module: Optional[str], level: int) -> Optional[str]:
        if level == 0:
            return module
        parts = self.module.split(".")
        # ``from . import x`` in package ``a.b`` (module a.b.c) targets a.b.
        if self.rel_path.endswith("/__init__.py") or self.rel_path == "__init__.py":
            parts = parts + ["__init__"]
        if level >= len(parts):
            return None
        base = parts[: -level]
        if module:
            base = base + module.split(".")
        return ".".join(base) or None

    def resolve_name(self, name: str) -> str:
        """Canonical dotted name for a bare identifier used in this module."""
        if name in self.aliases:
            return self.aliases[name]
        if name in self.local_defs and self.module:
            return f"{self.module}.{name}"
        return name

    def resolve_expr(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a canonical dotted name."""
        parts: List[str] = []
        probe = node
        while isinstance(probe, ast.Attribute):
            parts.append(probe.attr)
            probe = probe.value
        if not isinstance(probe, ast.Name):
            return None
        return ".".join([self.resolve_name(probe.id), *reversed(parts)])

    # -- statement walkers ------------------------------------------------------------

    def _record_import(self, node: ast.stmt, type_checking: bool, deferred: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.aliases[alias.asname or alias.name.split(".", 1)[0]] = (
                    alias.name if alias.asname else alias.name.split(".", 1)[0]
                )
                self.imports.append(
                    ImportRecord(
                        target=alias.name,
                        names=(),
                        line=node.lineno,
                        type_checking=type_checking,
                        deferred=deferred,
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            target = self._resolve_relative(node.module, node.level)
            if target is None:
                return
            names = tuple(alias.name for alias in node.names)
            for alias in node.names:
                if alias.name != "*":
                    self.aliases[alias.asname or alias.name] = f"{target}.{alias.name}"
            self.imports.append(
                ImportRecord(
                    target=target,
                    names=names,
                    line=node.lineno,
                    type_checking=type_checking,
                    deferred=deferred,
                )
            )

    @staticmethod
    def _is_type_checking_test(test: ast.expr) -> bool:
        return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )

    def _walk_imports(self) -> None:
        """Collect every import with TYPE_CHECKING / deferred markers."""

        def visit(nodes: Iterable[ast.stmt], type_checking: bool, deferred: bool) -> None:
            for node in nodes:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    self._record_import(node, type_checking, deferred)
                elif isinstance(node, ast.If):
                    guarded = type_checking or self._is_type_checking_test(node.test)
                    visit(node.body, guarded, deferred)
                    visit(node.orelse, type_checking, deferred)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(node.body, type_checking, True)
                else:
                    for child_field in ("body", "orelse", "finalbody"):
                        visit(getattr(node, child_field, []), type_checking, deferred)
                    for handler in getattr(node, "handlers", []):
                        visit(handler.body, type_checking, deferred)
                    for case in getattr(node, "cases", []):
                        visit(case.body, type_checking, deferred)

        visit(self.tree.body, False, False)

    def _extract_dunder_all(self) -> None:
        for statement in self.tree.body:
            if (
                isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and statement.targets[0].id == "__all__"
            ):
                self.dunder_all_line = statement.lineno
                if isinstance(statement.value, (ast.List, ast.Tuple)) and all(
                    isinstance(element, ast.Constant) and isinstance(element.value, str)
                    for element in statement.value.elts
                ):
                    self.dunder_all = tuple(
                        element.value
                        for element in statement.value.elts
                        if isinstance(element, ast.Constant)
                    )

    # -- unions ------------------------------------------------------------------------

    def _union_members(self, value: ast.expr) -> Optional[Tuple[str, ...]]:
        """Member names of a ``Union[...]`` subscript or ``A | B`` expression."""
        if isinstance(value, ast.Subscript):
            head = self.resolve_expr(value.value)
            if head not in ("typing.Union", "Union"):
                return None
            elements = (
                value.slice.elts if isinstance(value.slice, ast.Tuple) else [value.slice]
            )
            members = [self.resolve_expr(element) for element in elements]
            if all(member is not None for member in members):
                return tuple(member for member in members if member is not None)
            return None
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.BitOr):
            left = self._union_members(value.left) or (
                (resolved,) if (resolved := self.resolve_expr(value.left)) else None
            )
            right = self._union_members(value.right) or (
                (resolved,) if (resolved := self.resolve_expr(value.right)) else None
            )
            if left and right:
                return left + right
        return None

    def _extract_unions(self) -> None:
        for statement in self.tree.body:
            target: Optional[str] = None
            value: Optional[ast.expr] = None
            if (
                isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
            ):
                target, value = statement.targets[0].id, statement.value
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                target, value = statement.target.id, statement.value
            if target is None or value is None:
                continue
            members = self._union_members(value)
            if members and len(members) >= 2:
                self.unions[target] = members

    # -- classes -----------------------------------------------------------------------

    def _is_dataclass_decorator(self, node: ast.expr) -> bool:
        probe = node.func if isinstance(node, ast.Call) else node
        resolved = self.resolve_expr(probe)
        return resolved in ("dataclasses.dataclass", "dataclass") or (
            isinstance(probe, ast.Name) and probe.id == "dataclass"
        )

    def _extract_classes(self) -> None:
        for statement in self.tree.body:
            if not isinstance(statement, ast.ClassDef):
                continue
            bases = tuple(
                resolved
                for base in statement.bases
                if (resolved := self.resolve_expr(base)) is not None
            )
            is_dataclass = any(
                self._is_dataclass_decorator(decorator)
                for decorator in statement.decorator_list
            )
            fields: List[str] = []
            for body_statement in statement.body:
                if isinstance(body_statement, ast.AnnAssign) and isinstance(
                    body_statement.target, ast.Name
                ):
                    annotation = ast.dump(body_statement.annotation)
                    if "ClassVar" not in annotation:
                        fields.append(body_statement.target.id)
            self_attrs: Dict[str, int] = {}
            for node in ast.walk(statement):
                attr: Optional[ast.Attribute] = None
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Attribute):
                            attr = target
                            self._note_self_attr(attr, self_attrs)
                    continue
                if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Attribute
                ):
                    self._note_self_attr(node.target, self_attrs)
            self.classes.append(
                ClassSummary(
                    name=statement.name,
                    line=statement.lineno,
                    bases=bases,
                    is_dataclass=is_dataclass,
                    dataclass_fields=tuple(fields),
                    self_attrs=tuple(sorted(self_attrs.items())),
                )
            )

    @staticmethod
    def _note_self_attr(target: ast.Attribute, out: Dict[str, int]) -> None:
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            if target.attr not in out or target.lineno < out[target.attr]:
                out[target.attr] = target.lineno

    # -- dispatch chains ---------------------------------------------------------------

    def _isinstance_test(
        self, test: ast.expr
    ) -> Optional[Tuple[str, Tuple[str, ...]]]:
        """``(subject, tested types)`` if ``test`` is an isinstance call."""
        if not (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
            and len(test.args) == 2
        ):
            return None
        subject = ast.dump(test.args[0])
        classinfo = test.args[1]
        elements = (
            list(classinfo.elts) if isinstance(classinfo, ast.Tuple) else [classinfo]
        )
        tested = tuple(
            resolved
            for element in elements
            if (resolved := self.resolve_expr(element)) is not None
        )
        if not tested:
            return None
        return subject, tested

    def _extract_if_chain(self, node: ast.If, scope: str) -> None:
        subject: Optional[str] = None
        tested: List[str] = []
        has_fallback = False
        probe: ast.stmt = node
        while isinstance(probe, ast.If):
            self._seen_ifs.add(id(probe))
            extracted = self._isinstance_test(probe.test)
            if extracted is None or (subject is not None and extracted[0] != subject):
                # A non-isinstance (or different-subject) branch handles the
                # "anything else" cases: conservatively a fallback.
                has_fallback = True
            else:
                subject = extracted[0]
                tested.extend(extracted[1])
            orelse = probe.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                probe = orelse[0]
                continue
            has_fallback = has_fallback or bool(orelse)
            break
        if subject is not None and tested:
            self.dispatches.append(
                DispatchSite(
                    scope=scope,
                    line=node.lineno,
                    col=node.col_offset,
                    subject=subject,
                    tested=tuple(dict.fromkeys(tested)),
                    has_fallback=has_fallback,
                    kind="isinstance",
                )
            )

    def _match_case_types(self, pattern: ast.pattern) -> Tuple[Tuple[str, ...], bool]:
        """``(tested types, is_wildcard)`` for one match-case pattern."""
        if isinstance(pattern, ast.MatchClass):
            resolved = self.resolve_expr(pattern.cls)
            return ((resolved,) if resolved else ()), False
        if isinstance(pattern, ast.MatchOr):
            tested: List[str] = []
            wildcard = False
            for sub in pattern.patterns:
                sub_tested, sub_wild = self._match_case_types(sub)
                tested.extend(sub_tested)
                wildcard = wildcard or sub_wild
            return tuple(tested), wildcard
        if isinstance(pattern, ast.MatchAs):
            if pattern.pattern is None:
                return (), True  # bare ``case _:`` / ``case other:``
            return self._match_case_types(pattern.pattern)
        return (), True  # value/sequence/mapping patterns: foreign → fallback

    def _extract_match(self, node: ast.Match, scope: str) -> None:
        tested: List[str] = []
        has_fallback = False
        for case in node.cases:
            case_tested, wildcard = self._match_case_types(case.pattern)
            tested.extend(case_tested)
            has_fallback = has_fallback or wildcard
        if tested:
            self.dispatches.append(
                DispatchSite(
                    scope=scope,
                    line=node.lineno,
                    col=node.col_offset,
                    subject=ast.dump(node.subject),
                    tested=tuple(dict.fromkeys(tested)),
                    has_fallback=has_fallback,
                    kind="match",
                )
            )

    def _extract_dispatches(self) -> None:
        def visit(nodes: Iterable[ast.stmt], scope: str) -> None:
            for node in nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
                    visit(node.body, inner)
                    continue
                if isinstance(node, ast.ClassDef):
                    visit(node.body, scope)
                    continue
                if isinstance(node, ast.If):
                    if id(node) not in self._seen_ifs:
                        self._extract_if_chain(node, scope)
                    visit(node.body, scope)
                    for orelse_node in node.orelse:
                        if isinstance(orelse_node, ast.If):
                            visit(orelse_node.body, scope)
                            visit(orelse_node.orelse, scope)
                            self._seen_ifs.add(id(orelse_node))
                        else:
                            visit([orelse_node], scope)
                    continue
                if isinstance(node, ast.Match):
                    self._extract_match(node, scope)
                for child_field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, child_field, []), scope)
                for handler in getattr(node, "handlers", []):
                    visit(handler.body, scope)
                for case in getattr(node, "cases", []):
                    visit(case.body, scope)

        visit(self.tree.body, "<module>")

    # -- references --------------------------------------------------------------------

    def _extract_references(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                resolved = self.resolve_expr(node)
                if resolved is not None and "." in resolved:
                    self.references.add(resolved)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in self.aliases:
                    self.references.add(self.aliases[node.id])

    def run(self) -> ModuleSummary:
        self._collect_top_level_names()
        self._walk_imports()
        self._extract_dunder_all()
        self._extract_unions()
        self._extract_classes()
        self._extract_dispatches()
        self._extract_references()
        return ModuleSummary(
            rel_path=self.rel_path,
            module=self.module,
            imports=tuple(self.imports),
            dunder_all=self.dunder_all,
            dunder_all_line=self.dunder_all_line,
            classes=tuple(self.classes),
            unions=dict(self.unions),
            dispatches=tuple(self.dispatches),
            references=tuple(sorted(self.references)),
        )


def summarize_module(rel_path: str, tree: ast.Module) -> ModuleSummary:
    """Extract the whole-program digest for one parsed file."""
    return _SummaryExtractor(rel_path, module_name_for(rel_path), tree).run()


class ProjectContext:
    """Aggregated view of every scanned module, handed to project rules."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries: Tuple[ModuleSummary, ...] = tuple(summaries)
        self.modules: Dict[str, ModuleSummary] = {
            summary.module: summary for summary in self.summaries if summary.module
        }
        self._uses: Optional[Dict[Tuple[str, str], int]] = None
        #: canonical symbol → modules that reference it (through any path).
        self._canonical_uses: Optional[Dict[str, Set[str]]] = None
        self._star_imported: Optional[Set[str]] = None
        self._resolving: Set[str] = set()

    # -- symbol resolution -------------------------------------------------------------

    def split_symbol(self, qualified: str) -> Optional[Tuple[str, str]]:
        """Split a dotted name into ``(module, symbol)`` by longest module prefix."""
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                return module, parts[cut]
        return None

    def resolve_symbol(self, qualified: str) -> str:
        """Canonical definition site of a possibly re-exported dotted name.

        ``repro.core.JobAdded`` resolves to ``repro.core.session.JobAdded``
        when ``repro/core/__init__.py`` imports it from the session module.
        Unresolvable names are returned unchanged.
        """
        if qualified in self._resolving:
            return qualified
        split = self.split_symbol(qualified)
        if split is None:
            return qualified
        module, symbol = split
        summary = self.modules[module]
        for cls in summary.classes:
            if cls.name == symbol:
                return f"{module}.{symbol}"
        if symbol in summary.unions:
            return f"{module}.{symbol}"
        for record in summary.imports:
            if symbol in record.names:
                self._resolving.add(qualified)
                try:
                    return self.resolve_symbol(f"{record.target}.{symbol}")
                finally:
                    self._resolving.discard(qualified)
        return f"{module}.{symbol}"

    def find_class(self, qualified: str) -> Optional[Tuple[ModuleSummary, ClassSummary]]:
        """Look up a class summary by (resolved) dotted name."""
        resolved = self.resolve_symbol(qualified)
        split = self.split_symbol(resolved)
        if split is None:
            return None
        module, symbol = split
        summary = self.modules[module]
        for cls in summary.classes:
            if cls.name == symbol:
                return summary, cls
        return None

    def union_members(self, qualified: str) -> Optional[Tuple[str, ...]]:
        """Resolved member names of a ``Union`` type alias, or ``None``."""
        split = self.split_symbol(qualified)
        if split is None:
            return None
        module, symbol = split
        members = self.modules[module].unions.get(symbol)
        if members is None:
            return None
        return tuple(self.resolve_symbol(member) for member in members)

    def class_bases(self, qualified: str) -> Tuple[str, ...]:
        """Resolved direct bases of a class (empty when unknown)."""
        found = self.find_class(qualified)
        if found is None:
            return ()
        return tuple(self.resolve_symbol(base) for base in found[1].bases)

    # -- usage table (dead-export rule) ------------------------------------------------

    def _build_uses(self) -> None:
        uses: Dict[Tuple[str, str], int] = {}
        canonical_uses: Dict[str, Set[str]] = {}
        star_imported: Set[str] = set()

        def note(module: str, name: str, consumer: str) -> None:
            uses[(module, name)] = uses.get((module, name), 0) + 1
            canonical = self.resolve_symbol(f"{module}.{name}")
            canonical_uses.setdefault(canonical, set()).add(consumer)

        for summary in self.summaries:
            for record in summary.imports:
                if record.target == summary.module:
                    continue
                for name in record.names:
                    if name == "*":
                        star_imported.add(record.target)
                    else:
                        note(record.target, name, summary.module)
                if not record.names and record.target in self.modules:
                    # ``import a.b.c`` marks submodule names used along the chain.
                    parts = record.target.split(".")
                    for cut in range(1, len(parts)):
                        note(".".join(parts[:cut]), parts[cut], summary.module)
            for reference in summary.references:
                split = self.split_symbol(reference)
                if split is None:
                    continue
                module, symbol = split
                if module != summary.module:
                    note(module, symbol, summary.module)
        self._uses = uses
        self._canonical_uses = canonical_uses
        self._star_imported = star_imported

    def is_name_used_externally(self, module: str, name: str) -> bool:
        """Whether the symbol ``module.name`` exports is used from any *other* module.

        A re-export is alive when any module reaches the same canonical
        definition through **any** import path: ``repro.cluster.V100`` (a
        package re-export) is used as long as someone imports ``V100`` from
        either ``repro.cluster`` or its defining submodule.
        """
        if self._uses is None or self._star_imported is None:
            self._build_uses()
        assert self._uses is not None and self._star_imported is not None
        assert self._canonical_uses is not None
        if module in self._star_imported:
            return True
        if (module, name) in self._uses:
            return True
        # ``from pkg import name`` where pkg/__init__ re-exports it from here.
        submodule = f"{module}.{name}"
        if submodule in self.modules:
            return True
        canonical = self.resolve_symbol(f"{module}.{name}")
        consumers = self._canonical_uses.get(canonical, set())
        return any(consumer != module for consumer in consumers)

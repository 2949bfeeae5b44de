"""Rule base class and the ``REP0xx`` registry.

A :class:`Rule` has ``visit_<NodeType>`` methods; the engine instantiates one
rule object per file and dispatches matching AST nodes to it in a single
tree walk.  Rules that need whole-scope context (dataflow over a function
body, module-level name accounting) register for the scope node
(``visit_Module``/``visit_FunctionDef``) and walk the subtree themselves.
Rules register through :func:`register` and share the configuration,
``--select``/``--ignore`` and suppression machinery.
"""

from __future__ import annotations

import ast
from typing import Callable, ClassVar, Dict, Iterator, List, Sequence, Tuple, Type

from repro.analysis.context import FileContext
from repro.analysis.violations import Violation

__all__ = [
    "RULE_CLASSES",
    "Rule",
    "all_rule_codes",
    "handler_node_types",
    "iter_rule_classes",
    "register",
    "scope_statements",
]

Reporter = Callable[[ast.AST, str], None]


class Rule:
    """One invariant, checked per file.  Subclasses override ``visit_*``."""

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    #: Default path scope (project-relative prefixes); empty = everywhere.
    default_include: ClassVar[Tuple[str, ...]] = ()
    default_exclude: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, context: FileContext) -> None:
        self.context = context
        self.violations: List[Violation] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.context.rel_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=self.code,
                message=message,
            )
        )

    def finish(self) -> None:
        """Hook called once after the tree walk completes."""


#: code → rule class, in registration order.
RULE_CLASSES: Dict[str, Type[Rule]] = {}

#: rule class → node-type names it handles, computed once per class (the
#: engine's dispatch previously re-derived this with ``dir()`` per file).
_HANDLER_NODE_TYPES: Dict[Type[Rule], Tuple[str, ...]] = {}


def handler_node_types(rule_class: Type[Rule]) -> Tuple[str, ...]:
    """AST node-type names (``"Call"``, ``"Module"``…) the rule visits."""
    cached = _HANDLER_NODE_TYPES.get(rule_class)
    if cached is None:
        cached = tuple(
            attribute[len("visit_") :]
            for attribute in dir(rule_class)
            if attribute.startswith("visit_")
        )
        _HANDLER_NODE_TYPES[rule_class] = cached
    return cached


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry."""
    if not rule_class.code:
        raise ValueError(f"rule {rule_class.__name__} has no code")
    if rule_class.code in RULE_CLASSES:
        raise ValueError(f"duplicate rule code {rule_class.code}")
    RULE_CLASSES[rule_class.code] = rule_class
    return rule_class


def iter_rule_classes() -> Iterator[Type[Rule]]:
    yield from RULE_CLASSES.values()


def all_rule_codes() -> List[str]:
    return sorted(RULE_CLASSES)


def scope_statements(scope: ast.AST) -> Iterator[ast.stmt]:
    """Statements belonging to one scope, without descending into nested defs.

    Yields every statement reachable from ``scope``'s body through compound
    statements (``if``/``for``/``with``/``try``...), stopping at nested
    function and class definitions — those are their own scopes and get their
    own rule visit.
    """
    body: Sequence[ast.stmt] = getattr(scope, "body", [])
    stack: List[ast.stmt] = list(body)
    while stack:
        statement = stack.pop()
        yield statement
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child_field in ("body", "orelse", "finalbody"):
            stack.extend(getattr(statement, child_field, []))
        for handler in getattr(statement, "handlers", []):
            stack.extend(handler.body)
        for case in getattr(statement, "cases", []):
            stack.extend(case.body)

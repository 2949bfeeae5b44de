"""Per-file source rules (REP000–REP009), checked over every tree of the repo.

Each rule guards an invariant of the *code* that a class of bug in this
scheduler broke before:

* **REP001** — the status of a HiGHS call (``addRows``/``changeCoeff``/``run``
  family) is ignored: a rejected batch silently desynchronises the live model
  from its ``LinearProgram`` (the PR 6 ``addRows`` bug).
* **REP002** — a wall-clock read outside ``scheduler/clock.py`` breaks replay
  determinism.
* **REP003** — unseeded random-number generation.
* **REP004** — iteration over a ``set`` without an ordering guard in the
  packages whose iteration order reaches LP rows and deltas.
* **REP005** — ``==``/``!=`` on a computed float.
* **REP006** — a mutable default argument.
* **REP007** — reach-in to another object's ``._highs``/``._program``,
  bypassing the edit log the warm start and restore replay.
* **REP008** — ``__all__`` missing (under ``src/repro``), not literal, or out
  of step with the module's public names.
* **REP009** — a ``heapq`` push in ``scheduler/`` whose entry lacks a monotone
  sequence tiebreak in position 2.

A finding is silenced per line by a ``repro: noqa[REP0xx] -- why`` comment
(a ``#`` comment); on the first line of a statement it covers the
statement's continuation lines.  **REP000** reports a suppression that is
blanket, lacks a rationale, names a malformed or unknown code, or names a
code that is run on the file and does not fire on its line.  **REP999** is a
file that cannot be decoded or parsed.  Scopes and rule data are the
constants below; ``pytest tests/test_source_rules.py -k <file>`` checks one
file.

The fixture corpus under ``source_rules/`` holds a bad and a good file per
rule; ``# expect[REP0xx]`` markers on a bad file's lines are its findings.
Invariants no single file shows (import layering, live exports) are in
``test_repo_invariants.py``.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS = REPO_ROOT / "tests" / "source_rules"
TREES = ("src", "tests", "benchmarks", "examples")

SUPPRESSION_CODE = "REP000"
PARSE_ERROR_CODE = "REP999"

#: Rule code → the repo-relative path prefixes it runs under; absent = everywhere.
SCOPES = {
    "REP004": ("src/repro/core", "src/repro/scheduler", "src/repro/solver"),
    "REP007": ("src/repro",),
    "REP009": ("src/repro/scheduler",),
}

#: REP001: HiGHS methods returning a status that must be checked — every one
#: mutates the model (a rejected batch desynchronises it) or runs the solve.
STATUS_METHODS = frozenset({
    "addCol", "addCols", "addRow", "addRows", "addVar", "addVars", "changeCoeff",
    "changeColBounds", "changeColCost", "changeColsBounds", "changeColsCost",
    "changeObjectiveOffset", "changeObjectiveSense", "changeRowBounds",
    "changeRowsBounds", "deleteCols", "deleteRows", "deleteVars", "passModel", "run",
    "setBasis", "setOptionValue", "setSolution",
})
#: REP001: receiver-name fragments naming a HiGHS handle (keeps ``subprocess.run`` out).
STATUS_RECEIVERS = ("highs",)

#: REP002: wall-clock reads.  ``time.perf_counter`` is not one: it feeds
#: performance metrics, never scheduling decisions.
WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.date.today",
})
CLOCK_MODULES = ("src/repro/scheduler/clock.py",)

#: REP003: generator constructors that are fine given a seed argument.
SEEDABLE = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator", "numpy.random.SeedSequence",
    "numpy.random.BitGenerator", "numpy.random.MT19937", "numpy.random.PCG64",
    "numpy.random.PCG64DXSM", "numpy.random.Philox", "numpy.random.SFC64",
    "random.Random",
})

#: REP004: callables whose result does not depend on a generator argument's order.
ORDER_INSENSITIVE = frozenset({"all", "any", "frozenset", "len", "max", "min", "set", "sorted", "sum"})
SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})

#: REP005: comparing against one of these is already tolerance-aware.
TOLERANCE_CALLS = frozenset({"approx"})
#: REP005: math functions whose results are inexact floats.
FLOAT_FUNCTIONS = frozenset({
    "math.sqrt", "math.exp", "math.expm1", "math.log", "math.log1p", "math.log2",
    "math.log10", "math.pow", "math.sin", "math.cos", "math.tan", "math.hypot", "math.fsum",
})

#: REP006: calls that build a mutable object.
MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "collections.defaultdict",
    "collections.OrderedDict", "collections.Counter", "collections.deque",
})

#: REP007: private internals only their owner (``self``/``cls``) may touch.
PRIVATE_INTERNALS = frozenset({"_highs", "_program"})

#: REP008: where a module must define ``__all__`` (the package ships
#: ``py.typed``, so its import surface is a contract), and which files need not.
DUNDER_ALL_REQUIRED_IN = ("src/repro",)
DUNDER_ALL_EXEMPT = frozenset({"__main__.py", "conftest.py", "setup.py"})

#: REP009: heap pushes, and the name fragments marking a sequence counter.
HEAP_PUSHES = frozenset({"heapq.heappush", "heapq.heappushpop"})
SEQUENCE_MARKERS = ("seq", "counter", "count", "order", "tick", "index")

#: ``from``-imports whose imported name is itself a namespace worth chasing.
_FROM_IMPORT_NAMESPACES = {
    ("datetime", "datetime"): "datetime.datetime",
    ("datetime", "date"): "datetime.date",
    ("numpy", "random"): "numpy.random",
}


class Finding(NamedTuple):
    line: int
    col: int
    code: str
    message: str


class _File(NamedTuple):
    """What a check may consult besides its node."""

    path: str
    aliases: Dict[str, str]


Report = Iterator[Tuple[ast.AST, str]]


def _in(path: str, prefixes: Iterable[str]) -> bool:
    return any(path == prefix or path.startswith(prefix + "/") for prefix in prefixes)


def _import_aliases(nodes: Sequence[ast.AST]) -> Dict[str, str]:
    """Local name → canonical dotted prefix, from the file's imports."""
    aliases: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                aliases[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = _FROM_IMPORT_NAMESPACES.get(
                    (node.module, alias.name), f"{node.module}.{alias.name}"
                )
    return aliases


def _tail(node: ast.AST) -> Optional[str]:
    """The last name of a Name/Attribute chain: ``self._backend._highs`` → ``_highs``."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _dotted(file: _File, node: ast.AST) -> Optional[str]:
    """Canonical dotted name of a Name/Attribute chain rooted in an import.

    ``import time as _time`` makes ``_time.monotonic`` ``"time.monotonic"``;
    a chain rooted in anything else (a local, a call result) is ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in file.aliases:
        return None
    return ".".join([file.aliases[node.id], *reversed(parts)])


def _substatements(statement: ast.AST) -> Iterator[ast.stmt]:
    """The statements directly inside a compound statement (or a scope)."""
    for child_field in ("body", "orelse", "finalbody"):
        yield from getattr(statement, child_field, [])
    for clause in (*getattr(statement, "handlers", []), *getattr(statement, "cases", [])):
        yield from clause.body


def _scope_statements(scope: ast.AST) -> Iterator[ast.stmt]:
    """Statements of one scope, through compound statements, not nested defs."""
    stack: List[ast.stmt] = list(getattr(scope, "body", []))
    while stack:
        statement = stack.pop()
        yield statement
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(_substatements(statement))


# -- REP001: ignored solver status ---------------------------------------------


def _status_method(call: ast.Call) -> str:
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in STATUS_METHODS:
        return ""
    tail = _tail(func.value)
    if tail is None or not any(hint in tail.lower() for hint in STATUS_RECEIVERS):
        return ""
    return func.attr


def _ignored_status(file: _File, scope: ast.AST) -> Report:
    """A bare status call, or a status assigned to a name the scope never reads."""
    assigned: List[Tuple[ast.Assign, str, str]] = []
    for statement in _scope_statements(scope):
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call):
            method = _status_method(statement.value)
            if method:
                yield statement, (
                    f"return status of `{method}(...)` is ignored; check it "
                    "against HighsStatus and raise SolverError on failure"
                )
        elif (
            isinstance(statement, ast.Assign)
            and isinstance(statement.value, ast.Call)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Name)
        ):
            method = _status_method(statement.value)
            if method:
                assigned.append((statement, statement.targets[0].id, method))
    if not assigned:
        return
    loads = {
        node.id
        for node in ast.walk(scope)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for statement, target, method in assigned:
        if target not in loads:
            yield statement, (
                f"solver status of `{method}(...)` is assigned to `{target}` but never checked"
            )


# -- REP002 / REP003 / REP009: calls ---------------------------------------------


def _wall_clock(file: _File, node: ast.Call) -> Report:
    dotted = _dotted(file, node.func)
    if dotted not in WALL_CLOCK or file.path in CLOCK_MODULES:
        return
    # A tz-aware now() is still wall clock, but someone's explicit choice.
    if dotted == "datetime.datetime.now" and (node.args or node.keywords):
        return
    yield node, (
        f"wall-clock read `{dotted}()` breaks replay determinism; take time "
        "from the scheduler's Clock (scheduler/clock.py) instead"
    )


def _unseeded_random(file: _File, node: ast.Call) -> Report:
    dotted = _dotted(file, node.func)
    if dotted is None:
        return
    if dotted in SEEDABLE:
        if not node.args and not node.keywords:
            yield node, (
                f"`{dotted}()` without a seed is entropy-seeded; pass an "
                "explicit seed so runs replay byte-identically"
            )
    elif dotted.startswith("numpy.random."):
        yield node, (
            f"`{dotted}(...)` draws from the module-level legacy RNG; use an "
            "explicitly seeded numpy.random.default_rng(seed) generator"
        )
    elif dotted.startswith("random."):
        yield node, (
            f"`{dotted}(...)` uses the process-global RNG; use an explicitly "
            "seeded random.Random(seed) or numpy.random.default_rng(seed)"
        )


def _is_sequence(node: ast.expr) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "next":
        return True  # next() on an itertools.count is monotone
    name = _tail(node)
    return name is not None and any(marker in name.lower() for marker in SEQUENCE_MARKERS)


def _heap_tiebreak(file: _File, node: ast.Call) -> Report:
    """Equal heap keys must pop in a recorded order, which ``snapshot()`` keeps."""
    if _dotted(file, node.func) not in HEAP_PUSHES or len(node.args) < 2:
        return
    entry = node.args[1]
    if not isinstance(entry, ast.Tuple):
        yield node, (
            "heap entry is not a literal tuple; push `(key, seq, payload)` "
            "with a monotone sequence number so equal keys replay deterministically"
        )
    elif len(entry.elts) < 2 or not _is_sequence(entry.elts[1]):
        yield node, (
            "heap entry lacks a monotone sequence tiebreak in position 2; "
            "equal-key pops fall back to heap-internal order, which "
            "snapshot restore does not preserve"
        )


# -- REP004: set iteration -------------------------------------------------------


def _is_set_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in SET_ANNOTATIONS
    return isinstance(annotation, ast.Name) and annotation.id in SET_ANNOTATIONS


def _is_setish(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_setish(node.left, set_names) or _is_setish(node.right, set_names)
    return isinstance(node, ast.Name) and node.id in set_names


def _set_names(scope: ast.AST) -> Set[str]:
    """Names every assignment in the scope makes a set; annotations count directly."""
    setish: Set[str] = set()
    tainted: Set[str] = set()
    args = getattr(scope, "args", None)
    if args is not None:
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.annotation is not None and _is_set_annotation(arg.annotation):
                setish.add(arg.arg)
    for statement in _scope_statements(scope):
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    (setish if _is_setish(statement.value, setish) else tainted).add(target.id)
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            if _is_set_annotation(statement.annotation):
                setish.add(statement.target.id)
    return setish - tainted


def _set_iteration(file: _File, scope: ast.AST) -> Report:
    """A for-loop or ordered comprehension fed by a set's iteration order."""
    set_names = _set_names(scope)
    expressions: List[ast.expr] = []
    for statement in _scope_statements(scope):
        if isinstance(statement, (ast.For, ast.AsyncFor)) and _is_setish(statement.iter, set_names):
            yield statement.iter, (
                "for-loop over a set: iteration order is not deterministic; "
                "wrap the iterable in sorted(...)"
            )
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.expr):
                expressions.extend(node for node in ast.walk(child) if isinstance(node, ast.expr))
    # A generator handed straight to an order-insensitive callable is exempt.
    exempt = {
        id(argument)
        for node in expressions
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ORDER_INSENSITIVE
        for argument in node.args
        if isinstance(argument, ast.GeneratorExp)
    }
    for node in expressions:
        if not isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)) or id(node) in exempt:
            continue
        for generator in node.generators:
            if _is_setish(generator.iter, set_names):
                yield generator.iter, (
                    "comprehension over a set feeds its nondeterministic "
                    "iteration order into an ordered result; wrap the iterable in sorted(...)"
                )


# -- REP005 / REP006 / REP007 ----------------------------------------------------


def _inexact(file: _File, node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float) and not node.value.is_integer()
    if isinstance(node, ast.UnaryOp):
        return _inexact(file, node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.Div, ast.Pow)):
            return True
        return _inexact(file, node.left) or _inexact(file, node.right)
    if isinstance(node, ast.Call):
        return _dotted(file, node.func) in FLOAT_FUNCTIONS
    return False


def _tolerance_guarded(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and _tail(node.func) in TOLERANCE_CALLS


def _float_equality(file: _File, node: ast.Compare) -> Report:
    """``==``/``!=`` where a side is visibly inexact; ``x == 0.0`` on a stored value passes."""
    operands = [node.left, *node.comparators]
    for index, op in enumerate(node.ops):
        if not isinstance(op, (ast.Eq, ast.NotEq)):
            continue
        left, right = operands[index], operands[index + 1]
        if _tolerance_guarded(left) or _tolerance_guarded(right):
            continue
        if _inexact(file, left) or _inexact(file, right):
            yield node, (
                "float equality on a computed value is tolerance-blind; "
                "compare with math.isclose(...) or an explicit epsilon"
            )


def _is_mutable(file: _File, node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted(file, node.func)
        if dotted is None and isinstance(node.func, ast.Name):
            dotted = node.func.id
        return dotted in MUTABLE_CALLS
    return False


def _mutable_defaults(file: _File, node: ast.AST) -> Report:
    args: ast.arguments = getattr(node, "args")
    for default in (*args.defaults, *args.kw_defaults):
        if default is not None and _is_mutable(file, default):
            yield default, (
                "mutable default argument is shared across every call; "
                "default to None and construct inside the function"
            )


def _private_reach_in(file: _File, node: ast.Attribute) -> Report:
    if node.attr not in PRIVATE_INTERNALS:
        return
    if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
        return
    yield node, (
        f"reach-in to private internal `.{node.attr}` from outside the owning "
        "object bypasses the mutation-handle API; use the owner's public surface"
    )


# -- REP008: __all__ -------------------------------------------------------------


def _dunder_all(file: _File, module: ast.Module) -> Report:
    """Every ``__all__`` entry bound once; every public top-level def exported."""
    exported: List[str] = []
    literal = True
    dunder_all: Optional[ast.stmt] = None
    bound: Set[str] = set()
    star_import = False
    public_defs: List[ast.stmt] = []
    for statement in _scope_statements(module):
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(statement.name)
            if not statement.name.startswith("_"):
                public_defs.append(statement)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                bound.update(name.id for name in ast.walk(target) if isinstance(name, ast.Name))
            if (
                len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and statement.targets[0].id == "__all__"
            ):
                dunder_all, items = statement, getattr(statement.value, "elts", None)
                if isinstance(statement.value, (ast.List, ast.Tuple)) and all(
                    isinstance(item, ast.Constant) and isinstance(item.value, str) for item in items
                ):
                    exported = [item.value for item in items]
                else:
                    literal = False
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            bound.add(statement.target.id)
        elif isinstance(statement, ast.Import):
            bound.update(alias.asname or alias.name.split(".", 1)[0] for alias in statement.names)
        elif isinstance(statement, ast.ImportFrom):
            for alias in statement.names:
                if alias.name == "*":
                    star_import = True
                else:
                    bound.add(alias.asname or alias.name)
    if dunder_all is None:
        basename = file.path.rsplit("/", 1)[-1]
        if basename not in DUNDER_ALL_EXEMPT and _in(file.path, DUNDER_ALL_REQUIRED_IN):
            yield module, "module defines no __all__; the typed package's public API must be explicit"
        return
    if not literal:
        yield dunder_all, "__all__ is not a literal list/tuple of strings, so it cannot be checked statically"
        return
    seen: Set[str] = set()
    for name in exported:
        if name in seen:
            yield dunder_all, f"duplicate name `{name}` in __all__"
        seen.add(name)
        if not star_import and name not in bound:
            yield dunder_all, f"name `{name}` in __all__ is not defined in the module"
    for definition in public_defs:
        name = getattr(definition, "name")
        if name not in seen:
            yield definition, (
                f"public name `{name}` is missing from __all__; export it or "
                "rename it with a leading underscore"
            )


#: Node type → the (code, check) pairs that visit it, in one walk per file.
_SCOPE_CHECKS = (("REP001", _ignored_status), ("REP004", _set_iteration))
_CHECKS: Dict[type, Tuple[Tuple[str, Callable[..., Report]], ...]] = {
    ast.Module: (*_SCOPE_CHECKS, ("REP008", _dunder_all)),
    ast.ClassDef: _SCOPE_CHECKS,
    ast.FunctionDef: (*_SCOPE_CHECKS, ("REP006", _mutable_defaults)),
    ast.AsyncFunctionDef: (*_SCOPE_CHECKS, ("REP006", _mutable_defaults)),
    ast.Lambda: (("REP006", _mutable_defaults),),
    ast.Call: (("REP002", _wall_clock), ("REP003", _unseeded_random), ("REP009", _heap_tiebreak)),
    ast.Compare: (("REP005", _float_equality),),
    ast.Attribute: (("REP007", _private_reach_in),),
}
RULE_CODES = tuple(sorted({code for checks in _CHECKS.values() for code, _check in checks}))
ALL_CODES = (SUPPRESSION_CODE, *RULE_CODES)


# -- suppressions ----------------------------------------------------------------

#: The whole suppression comment: ``codes`` is the bracketed list (absent for a
#: blanket one), ``rationale`` what follows ``--``.
_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[^\]]*)\])?(?:\s*--\s*(?P<rationale>\S.*))?"
)
_CODE = re.compile(r"^REP\d{3}$")


class Suppression(NamedTuple):
    codes: Tuple[str, ...]
    malformed: Tuple[str, ...]
    rationale: str
    blanket: bool


def _suppressions(source: str) -> Dict[int, Suppression]:
    """Line → suppression comment.  The scan is textual, so a suppression
    inside a string literal counts too (the trade-off flake8 makes)."""
    found: Dict[int, Suppression] = {}
    for line, text in enumerate(source.splitlines(), start=1):
        match = _NOQA.search(text)
        if match is None:
            continue
        tokens = [token.strip() for token in (match.group("codes") or "").split(",")]
        codes = tuple(token for token in tokens if _CODE.match(token))
        malformed = tuple(token for token in tokens if token and not _CODE.match(token))
        blanket = match.group("codes") is None or not (codes or malformed)
        found[line] = Suppression(codes, malformed, match.group("rationale") or "", blanket)
    return found


def _statement_starts(tree: ast.Module) -> Dict[int, int]:
    """Continuation line → first line of its innermost enclosing statement."""
    starts: Dict[int, int] = {}

    def claim(statements: Iterable[ast.stmt]) -> None:
        for statement in statements:  # outer first, so the innermost claim wins
            for line in range(statement.lineno, (statement.end_lineno or statement.lineno) + 1):
                starts[line] = statement.lineno
            claim(_substatements(statement))

    claim(tree.body)
    return {line: start for line, start in starts.items() if line != start}


def _suppression_findings(
    line: int, suppression: Suppression, used: Set[str], run: Set[str]
) -> Iterator[Finding]:
    def finding(message: str) -> Finding:
        return Finding(line, 1, SUPPRESSION_CODE, message)

    if suppression.blanket:
        yield finding(
            "blanket `repro: noqa` is not allowed; list the codes being "
            "suppressed, with a rationale: `repro: noqa[REP0xx] -- why`"
        )
        return
    for bad in suppression.malformed:
        yield finding(f"malformed rule code `{bad}` in suppression")
    if suppression.codes and not suppression.rationale:
        yield finding("suppression without a rationale; append `-- <why this is safe>`")
    for code in suppression.codes:
        if code in used:
            continue
        if code not in RULE_CODES:
            yield finding(f"suppression names unknown rule code `{code}`")
        elif code in run:
            yield finding(f"unused suppression: no {code} violation on this line — delete it")


# -- driver ----------------------------------------------------------------------


def findings(
    source: str | bytes, path: str = "module.py", codes: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Every finding in ``source``, sorted by position.

    ``path`` is the file's repo-relative path; it decides which rules are in
    scope.  ``codes`` runs exactly those codes (``REP000`` included) in place
    of the scopes.  A file that cannot be decoded or parsed yields one
    ``REP999`` finding and nothing else.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as error:
            return [Finding(1, 1, PARSE_ERROR_CODE, f"cannot read file: {error}")]
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [Finding(error.lineno or 1, 1, PARSE_ERROR_CODE, f"syntax error: {error.msg}")]
    if codes is None:
        run = {code for code in ALL_CODES if code not in SCOPES or _in(path, SCOPES[code])}
    else:
        run = set(codes)
    nodes = list(ast.walk(tree))
    file = _File(path, _import_aliases(nodes))
    raw: List[Finding] = []
    for node in nodes:
        for code, check in _CHECKS.get(type(node), ()):
            if code in run:
                raw.extend(
                    Finding(getattr(at, "lineno", 1), getattr(at, "col_offset", 0) + 1, code, message)
                    for at, message in check(file, node)
                )
    suppressions = _suppressions(source)
    starts = _statement_starts(tree)
    used: Dict[int, Set[str]] = {line: set() for line in suppressions}
    kept: List[Finding] = []
    for finding in raw:
        # A line without a suppression inherits its statement's first line's.
        line = finding.line if finding.line in suppressions else starts.get(finding.line)
        if line in suppressions and finding.code in suppressions[line].codes:
            used[line].add(finding.code)
        else:
            kept.append(finding)
    if SUPPRESSION_CODE in run:
        for line, suppression in suppressions.items():
            kept.extend(_suppression_findings(line, suppression, used[line], run))
    return sorted(kept, key=lambda finding: finding[:3])


def _render(path: str, found: Iterable[Finding]) -> str:
    return "\n".join(f"{path}:{line}:{col}: {code} {message}" for line, col, code, message in found)


# -- the repository is clean -----------------------------------------------------


def _source_files() -> List[str]:
    return [
        path.relative_to(REPO_ROOT).as_posix()
        for tree in TREES
        for path in sorted((REPO_ROOT / tree).rglob("*.py"))
        if CORPUS not in path.parents and "__pycache__" not in path.parts
    ]


SOURCE_FILES = _source_files()


@pytest.mark.parametrize("path", SOURCE_FILES)
def test_source_is_clean(path: str) -> None:
    found = findings((REPO_ROOT / path).read_bytes(), path)
    assert not found, f"{path} breaks a source rule:\n{_render(path, found)}"


def test_the_scan_spans_every_tree() -> None:
    assert {path.split("/", 1)[0] for path in SOURCE_FILES} == set(TREES)
    assert len(SOURCE_FILES) > 150, "the scan found suspiciously few files"


# -- the fixture corpus ----------------------------------------------------------

_EXPECT = re.compile(r"expect\[(REP\d{3})\]")


def _corpus(suffix: str) -> List[Path]:
    found = sorted(CORPUS.glob(f"*_{suffix}.py"))
    assert found, f"no *_{suffix}.py fixtures found"
    return found


def _markers(path: Path) -> Counter:
    return Counter(
        (code, line)
        for line, text in enumerate(path.read_text().splitlines(), start=1)
        for code in _EXPECT.findall(text)
    )


def _fixture_findings(path: Path, codes: Iterable[str] = ALL_CODES) -> Counter:
    """The fixture's findings with ``codes`` run everywhere, scopes aside."""
    found = findings(path.read_bytes(), path.relative_to(REPO_ROOT).as_posix(), codes)
    return Counter((finding.code, finding.line) for finding in found)


@pytest.mark.parametrize("path", _corpus("bad"), ids=lambda path: path.stem)
def test_bad_fixture_matches_markers(path: Path) -> None:
    expected = _markers(path)
    assert expected, f"{path.name} has no expect[...] markers"
    assert _fixture_findings(path) == expected


@pytest.mark.parametrize("path", _corpus("good"), ids=lambda path: path.stem)
def test_good_fixture_is_clean(path: Path) -> None:
    assert _fixture_findings(path) == Counter()


@pytest.mark.parametrize("path", _corpus("bad"), ids=lambda path: path.stem)
def test_bad_fixture_goes_quiet_when_its_codes_are_not_run(path: Path) -> None:
    """The fixture's signal comes from its rules, not from the driver."""
    codes = {code for code, _line in _markers(path)}
    remaining = _fixture_findings(path, set(ALL_CODES) - codes)
    assert not {code for code, _line in remaining} & codes


@pytest.mark.parametrize("code", ALL_CODES)
def test_every_code_has_a_bad_fixture_marker(code: str) -> None:
    assert any(code == marked for path in _corpus("bad") for marked, _line in _markers(path))


def test_pr6_regression_fixture_is_flagged() -> None:
    """The verbatim PR 6 ignored-``addRows``-status code trips REP001."""
    assert "REP001" in {code for code, _line in _fixture_findings(CORPUS / "rep001_pr6_regression.py")}


# -- scopes ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("code", "source", "inside", "outside"),
    [
        ("REP004", "for x in {1, 2}:\n    pass\n", "src/repro/core/a.py", "src/repro/cluster/a.py"),
        ("REP004", "for x in {1, 2}:\n    pass\n", "src/repro/core/a.py", "src/repro/core_ext/a.py"),
        ("REP007", "def f(o):\n    return o._highs\n", "src/repro/cli.py", "tests/test_a.py"),
        ("REP009", "import heapq\nheapq.heappush(h, (t, job))\n", "src/repro/scheduler/a.py", "src/repro/core/a.py"),
        ("REP002", "import time\nnow = time.time()\n", "src/repro/scheduler/service.py", "src/repro/scheduler/clock.py"),
        ("REP008", "def f():\n    pass\n", "src/repro/core/a.py", "src/repro/__main__.py"),
        ("REP008", "def f():\n    pass\n", "src/repro/core/a.py", "tests/a.py"),
    ],
)
def test_a_rule_runs_where_its_scope_says(code: str, source: str, inside: str, outside: str) -> None:
    assert code in {finding.code for finding in findings(source, inside)}
    assert code not in {finding.code for finding in findings(source, outside)}


# -- suppressions and the driver -------------------------------------------------

#: The suppression marker, split so this file's own lines carry no suppression.
NOQA = "# repro" ": noqa"


def _codes(source: str, codes: Iterable[str] = ALL_CODES) -> List[str]:
    return [finding.code for finding in findings(source.replace("NOQA", NOQA), codes=codes)]


def test_clean_source_has_no_findings() -> None:
    assert _codes("def f(x):\n    return x\n") == []


@pytest.mark.parametrize(
    ("source", "line"), [("def f(:\n", 1), ("def f(xs=[]):  NOQA[REP005] -- stale\n    (\n", 2)]
)
def test_a_syntax_error_is_rep999_alone(source: str, line: int) -> None:
    found = findings(source.replace("NOQA", NOQA))
    assert [(finding.code, finding.line) for finding in found] == [(PARSE_ERROR_CODE, line)]


def test_undecodable_source_is_rep999() -> None:
    found = findings(b"\xff\xfe\x00")
    assert [finding.code for finding in found] == [PARSE_ERROR_CODE]
    assert "cannot read file" in found[0].message


def test_findings_are_sorted_by_position() -> None:
    found = findings("import time\n\n\ndef f(xs=[]):\n    return time.time(), xs\n")
    assert [(finding.code, finding.line) for finding in found] == [("REP006", 4), ("REP002", 5)]


def test_codes_argument_limits_the_run() -> None:
    source = "import time\n\n\ndef f(xs=[]):\n    return time.time(), xs\n"
    assert _codes(source, {"REP002", SUPPRESSION_CODE}) == ["REP002"]


@pytest.mark.parametrize(
    ("comment", "expected", "message"),
    [
        ("NOQA[REP006] -- sentinel never mutated", [], ""),
        ("NOQA[REP005, REP006] -- both listed", ["REP000"], "no REP005 violation"),
        ("NOQA", ["REP000", "REP006"], "blanket"),
        ("NOQA[] -- empty list", ["REP000", "REP006"], "blanket"),
        ("NOQA[REP006]", ["REP000"], "rationale"),
        ("NOQA[REP06] -- typo", ["REP000", "REP006"], "malformed rule code `REP06`"),
        ("NOQA[REP006, REP077] -- ghost", ["REP000"], "unknown rule code `REP077`"),
        ("NOQA[REP000] -- hygiene is not a rule", ["REP000", "REP006"], "unknown rule code `REP000`"),
    ],
)
def test_suppression_grammar(comment: str, expected: List[str], message: str) -> None:
    found = findings(f"def f(xs=[]):  {comment}\n    return xs\n".replace("NOQA", NOQA))
    assert [finding.code for finding in found] == expected
    assert message in (found[0].message if found else "")


def test_unused_suppression_is_flagged_only_where_its_rule_runs() -> None:
    source = "def f(x):  NOQA[REP006] -- nothing here\n    return x\n"
    assert _codes(source) == [SUPPRESSION_CODE]
    assert _codes(source, set(ALL_CODES) - {"REP006"}) == []
    scoped = f"__all__ = []\nfor x in y:  {NOQA}[REP004] -- nothing here\n    pass\n"
    assert [finding.code for finding in findings(scoped, "src/repro/core/a.py")] == [SUPPRESSION_CODE]
    assert findings(scoped, "src/repro/cluster/a.py") == []


def test_hygiene_is_not_run_without_rep000() -> None:
    assert _codes("def f(xs=[]):  NOQA\n    return xs\n", set(RULE_CODES)) == ["REP006"]


WRAPPED = "import time\n\nvalue = max(  NOQA[REP002] -- frozen test input\n    0.0,\n    time.time(),\n)\n"


def test_a_suppression_on_a_statements_first_line_covers_its_continuation() -> None:
    assert _codes(WRAPPED) == []
    assert _statement_starts(ast.parse(WRAPPED.replace("NOQA", NOQA))) == {4: 3, 5: 3, 6: 3}


def test_a_suppression_on_an_interior_line_does_not() -> None:
    source = WRAPPED.replace("max(  NOQA[REP002] -- frozen test input", "max(").replace(
        "0.0,", "0.0,  NOQA[REP002] -- wrong line"
    )
    assert sorted(_codes(source)) == [SUPPRESSION_CODE, "REP002"]


# -- REP001 on the live backend --------------------------------------------------

LP_PATH = "src/repro/solver/lp.py"


def _revert_status_check(source: str, method: str) -> str:
    """The PR 6 shape: ``_ensure_highs_ok(<receiver>.<method>(...), ...)`` unwrapped.

    Fails loudly when the wrapper moves or is renamed, instead of testing nothing.
    """
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_ensure_highs_ok"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Attribute)
            and node.args[0].func.attr == method
        ):
            wrapper = ast.get_source_segment(source, node)
            inner = ast.get_source_segment(source, node.args[0])
            assert wrapper is not None and inner is not None
            assert source.count(wrapper) == 1, "wrapper text is not unique"
            return source.replace(wrapper, inner)
    raise AssertionError(
        f"_ensure_highs_ok wrapper around `{method}` not found in {LP_PATH}; "
        "update this test alongside the backend"
    )


def _rep001_lines(source: str) -> List[int]:
    return [finding.line for finding in findings(source, LP_PATH) if finding.code == "REP001"]


def test_committed_lp_is_clean() -> None:
    assert _rep001_lines((REPO_ROOT / LP_PATH).read_text()) == []


@pytest.mark.parametrize("method", ["addRows", "run"])
def test_reverting_a_status_check_in_lp_is_flagged(method: str) -> None:
    reverted = _revert_status_check((REPO_ROOT / LP_PATH).read_text(), method)
    assert _rep001_lines(reverted), f"REP001 must flag the bare {method} call after the revert"

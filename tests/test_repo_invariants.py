"""Repository-wide invariants of ``src/repro``: import layering and live exports.

Both read the source with :mod:`ast`, so they hold for every module whether
or not a test imports it.
"""

import ast
import functools
import graphlib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE_ROOT = REPO_ROOT / "src"

#: Layer → (module prefixes, the other layers it may import).  Exceptions at
#: the bottom, solver/cluster primitives above them, policies (core) above the
#: solver, the scheduler above the policies, simulator/harness/cli on top.
#: A module belongs to the layer of its longest matching prefix, so the bare
#: ``repro`` prefix catches the root package and any new top-level module.
LAYERS = {
    "base": (("repro.exceptions",), ()),
    "solver": (("repro.solver",), ("base",)),
    "cluster": (("repro.cluster",), ("base",)),
    "workloads": (("repro.workloads",), ("base", "cluster")),
    "estimator": (("repro.estimator",), ("base", "cluster", "workloads")),
    "core": (("repro.core",), ("base", "solver", "cluster", "workloads")),
    "scheduler": (("repro.scheduler",), ("base", "cluster", "workloads", "core")),
    "simulator": (("repro.simulator",), ("base", "cluster", "workloads", "core", "scheduler")),
    "harness": (
        ("repro.harness",),
        ("base", "cluster", "workloads", "core", "scheduler", "simulator"),
    ),
    "cli": (
        ("repro", "repro.cli"),
        (
            "base", "solver", "cluster", "workloads", "estimator",
            "core", "scheduler", "simulator", "harness",
        ),
    ),
}

#: Deliberate public API with no in-repo user.
EXPORT_ALLOW = frozenset(
    {
        "repro.__version__",
        "repro.exceptions.ReproError",
        # What ClusterTopology.servers / .worker() return; callers annotate with them.
        "repro.cluster.Server",
        "repro.cluster.Worker",
    }
)


@functools.cache
def _modules():
    """Dotted module name → (path, parsed tree) for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SOURCE_ROOT / "repro").rglob("*.py")):
        parts = path.relative_to(SOURCE_ROOT).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        modules[name] = (path, ast.parse(path.read_text(encoding="utf-8")))
    return modules


def _layer_for(module):
    matches = [
        (len(prefix), layer)
        for layer, (prefixes, _imports) in LAYERS.items()
        for prefix in prefixes
        if module == prefix or module.startswith(prefix + ".")
    ]
    return max(matches)[1] if matches else None


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(module, path, statements):
    """``(line, imported module)`` for every runtime import, function bodies included.

    ``if TYPE_CHECKING:`` bodies are skipped: annotation-only imports do not
    exist at runtime.
    """
    for node in statements:
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = module.split(".") if path.name == "__init__.py" else module.split(".")[:-1]
            base = package[: len(package) - node.level + 1] if node.level else []
            yield node.lineno, ".".join([*base, *([node.module] if node.module else [])])
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _imports(module, path, node.orelse)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    yield from _imports(module, path, [child])
                elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                    yield from _imports(module, path, child.body)


def test_import_walker_skips_type_checking_and_counts_function_bodies():
    source = """
from typing import TYPE_CHECKING
import repro.solver.lp
from . import sibling

if TYPE_CHECKING:
    from repro.simulator import Simulator
else:
    from repro.cluster import ClusterSpec

def late():
    try:
        from repro.scheduler import ClusterScheduler
    except ImportError:
        from repro.harness import experiments
"""
    tree = ast.parse(source)
    found = [target for _line, target in _imports("repro.core.x", Path("x.py"), tree.body)]
    assert found == [
        "typing", "repro.solver.lp", "repro.core", "repro.cluster",
        "repro.scheduler", "repro.harness",
    ]


def test_layer_dag_is_acyclic():
    prefixes = [prefix for owned, _imports in LAYERS.values() for prefix in owned]
    assert len(prefixes) == len(set(prefixes)), "a module prefix is claimed by two layers"
    for layer, (_prefixes, imports) in LAYERS.items():
        assert set(imports) <= set(LAYERS) - {layer}, layer
    graph = {layer: imports for layer, (_prefixes, imports) in LAYERS.items()}
    tuple(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError


def test_every_module_has_a_layer_and_every_layer_a_module():
    layers = {module: _layer_for(module) for module in _modules()}
    assert None not in layers.values(), [module for module, layer in layers.items() if not layer]
    assert set(layers.values()) == set(LAYERS)


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_imports_follow_the_layer_dag(layer):
    allowed = {layer, *LAYERS[layer][1]}
    crossings = [
        f"{path.relative_to(REPO_ROOT)}:{line} imports {target} (layer {_layer_for(target)})"
        for module, (path, tree) in _modules().items()
        if _layer_for(module) == layer
        for line, target in _imports(module, path, tree.body)
        if _layer_for(target) not in allowed | {None}
    ]
    assert not crossings, f"{layer} may import only {sorted(allowed)}:\n" + "\n".join(crossings)


def _identifiers(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _dunder_all(tree):
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return [item.value for item in node.value.elts if isinstance(item, ast.Constant)]
    return []


def test_every_export_is_used_in_another_file():
    """A name in a module's ``__all__`` appears as an identifier in some other file.

    Other files are everything under ``src``, ``tests``, ``benchmarks`` and
    ``examples`` except the source rules' fixture corpus.  An export nothing else
    names is API surface that exists only in ``__all__``: drop it, or list it
    in ``EXPORT_ALLOW``.
    """
    fixtures = REPO_ROOT / "tests" / "source_rules"
    identifiers = {
        path: _identifiers(ast.parse(path.read_text(encoding="utf-8")))
        for tree_root in ("src", "tests", "benchmarks", "examples")
        for path in sorted((REPO_ROOT / tree_root).rglob("*.py"))
        if fixtures not in path.parents
    }
    unused = [
        f"{module}.{name}"
        for module, (path, tree) in _modules().items()
        for name in _dunder_all(tree)
        if f"{module}.{name}" not in EXPORT_ALLOW
        and not any(name in names for other, names in identifiers.items() if other != path)
    ]
    assert not unused, f"exported but never used outside their module: {unused}"

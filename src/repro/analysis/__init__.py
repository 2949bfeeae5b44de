"""Repo-specific static invariant checker for the Gavel reproduction.

The scheduler's headline guarantees — byte-deterministic snapshot/restore,
session-vs-rebuild equivalence across the whole policy registry, and
warm-started LP edits that never drift from the canonical program — are
invariants of the *code*, not of any single test.  This package encodes them
as machine-checked lint rules (``REP0xx`` codes) so the classes of bug the
codebase has already paid for cannot be silently reintroduced:

* **REP001** — ignored return status of a solver-backend call
  (``addRows``/``changeCoeff``/``run`` family; the PR 6 desynchronisation bug).
* **REP002** — wall-clock access outside ``scheduler/clock.py`` (breaks
  replay determinism).
* **REP003** — unseeded random-number generation.
* **REP004** — iteration over a ``set`` without an ordering guard in
  allocation-ordering-sensitive modules (``core/``, ``scheduler/``,
  ``solver/``).
* **REP005** — float ``==``/``!=`` on computed values.
* **REP006** — mutable default arguments.
* **REP007** — cross-module reach-in to private solver/session internals
  (``._highs``/``._program``), bypassing the mutation-handle API.
* **REP008** — ``__all__`` vs public-name consistency.

On top of the per-file pack, a whole-program phase aggregates every scanned
file into a :class:`~repro.analysis.project.ProjectContext` and checks the
cross-module invariants no single file can witness:

* **REP010** — import layering against the ``[tool.repro.analysis.layers]``
  DAG (``solver → core → scheduler → {simulator, harness, cli}``; the
  ``analysis`` package imports no runtime modules).
* **REP011** — delta-dispatch exhaustiveness: ``isinstance``/``match``
  dispatch over :class:`~repro.core.session.PolicyDelta` variants must cover
  every registered variant or carry an explicit fallback.
* **REP012** — snapshot-field coverage: mutable ``ClusterScheduler`` state
  must be captured by ``SchedulerSnapshot`` or declared soft state.
* **REP013** — dead exports: ``__all__`` names never used outside their
  defining module.

Violations can be suppressed per line with a ``repro: noqa[REP0xx] --
rationale`` comment; unused or rationale-free suppressions are themselves violations
(**REP000**).  Run the checker with ``python -m repro.analysis <paths>``: one
in-process pass over the given paths, reported as text or JSON;
configuration lives in ``[tool.repro.analysis]`` in ``pyproject.toml``.
"""

from __future__ import annotations

from repro.analysis.config import (
    AnalysisConfig,
    LayerSpec,
    RuleSettings,
    find_project_root,
    load_config,
)
from repro.analysis.engine import FileReport, analyze_file, analyze_paths
from repro.analysis.project import ModuleSummary, ProjectContext
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import RULE_CLASSES, all_rule_codes, iter_rule_classes
from repro.analysis.rules.base import ProjectRule, Rule
from repro.analysis.suppressions import Suppression, scan_suppressions
from repro.analysis.violations import Violation

__all__ = [
    "AnalysisConfig",
    "FileReport",
    "LayerSpec",
    "ModuleSummary",
    "ProjectContext",
    "ProjectRule",
    "RULE_CLASSES",
    "Rule",
    "RuleSettings",
    "Suppression",
    "Violation",
    "all_rule_codes",
    "analyze_file",
    "analyze_paths",
    "find_project_root",
    "iter_rule_classes",
    "load_config",
    "render_json",
    "render_text",
    "scan_suppressions",
]

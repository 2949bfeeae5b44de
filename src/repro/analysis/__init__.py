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
* **REP009** — ``heapq.heappush`` in ``scheduler/`` without a monotone
  sequence tiebreak.

Invariants no single file can show (import layering, exhaustive delta
summaries, snapshot coverage, live exports) are direct tier-1 tests
instead: ``tests/test_repo_invariants.py`` and the delta-summary and
snapshot-coverage tests beside their subjects.

Violations can be suppressed per line with a ``repro: noqa[REP0xx] --
rationale`` comment; unused or rationale-free suppressions are themselves violations
(**REP000**).  Run the checker with ``python -m repro.analysis <paths>``: one
in-process pass over the given paths, reported as text or JSON;
configuration lives in ``[tool.repro.analysis]`` in ``pyproject.toml``.
"""

from __future__ import annotations

from repro.analysis.config import (
    AnalysisConfig,
    RuleSettings,
    find_project_root,
    load_config,
)
from repro.analysis.engine import FileReport, analyze_file, analyze_paths
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import RULE_CLASSES, all_rule_codes, iter_rule_classes
from repro.analysis.rules.base import Rule
from repro.analysis.suppressions import Suppression, scan_suppressions
from repro.analysis.violations import Violation

__all__ = [
    "AnalysisConfig",
    "FileReport",
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

"""Rule registry: importing this package registers every ``REP0xx`` rule.

The public surface is the registry itself — individual rule classes are
addressed by code through :data:`RULE_CLASSES` rather than re-exported
here, so adding a rule never changes this module's API.  The per-class
imports below are what populate the registry.
"""

from __future__ import annotations

from repro.analysis.rules.base import (
    RULE_CLASSES,
    Rule,
    all_rule_codes,
    iter_rule_classes,
)
from repro.analysis.rules.determinism import (
    HeapTiebreakRule,
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.rules.hygiene import (
    DunderAllConsistencyRule,
    FloatEqualityRule,
    MutableDefaultRule,
)
from repro.analysis.rules.solver_discipline import (
    IgnoredSolverStatusRule,
    PrivateInternalReachInRule,
)

__all__ = [
    "RULE_CLASSES",
    "Rule",
    "all_rule_codes",
    "iter_rule_classes",
]

"""Violation reporters: flake8-style text and stable JSON."""

from __future__ import annotations

import json
from collections import Counter
from typing import List, Sequence

from repro.analysis.violations import Violation

__all__ = ["render_json", "render_text"]


def render_text(violations: Sequence[Violation], files_scanned: int) -> str:
    """flake8-style report: one ``path:line:col: CODE message`` per line."""
    lines: List[str] = [violation.render() for violation in violations]
    if violations:
        by_code = Counter(violation.code for violation in violations)
        breakdown = ", ".join(f"{code} x{count}" for code, count in sorted(by_code.items()))
        lines.append("")
        lines.append(
            f"{len(violations)} violation{'s' if len(violations) != 1 else ''} "
            f"in {files_scanned} files scanned ({breakdown})"
        )
    else:
        lines.append(f"0 violations in {files_scanned} files scanned")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation], files_scanned: int) -> str:
    """Stable JSON document (sorted violations, fixed key set)."""
    document = {
        "files_scanned": files_scanned,
        "violation_count": len(violations),
        "violations": [
            {
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "code": violation.code,
                "message": violation.message,
            }
            for violation in violations
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)

"""``python -m repro.analysis`` — the static checker's command line.

Exit codes follow lint convention: 0 clean, 1 violations found, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.config import find_project_root, load_config
from repro.analysis.engine import analyze_paths
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import RULE_CLASSES
from repro.analysis.violations import SUPPRESSION_CODE
from repro.exceptions import ConfigurationError

__all__ = ["build_parser", "main"]

_RENDERERS = {"text": render_text, "json": render_json}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-specific static invariant checker (REP0xx rules).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["."],
        help="files or directories to scan (default: current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run exclusively (e.g. REP001,REP004)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        type=Path,
        help="explicit pyproject.toml to read [tool.repro.analysis] from",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        type=Path,
        help="project root for relative paths and rule scoping "
        "(default: nearest ancestor with a pyproject.toml)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def _parse_codes(raw: str, known: Sequence[str]) -> frozenset[str]:
    codes = frozenset(token.strip().upper() for token in raw.split(",") if token.strip())
    unknown = codes - set(known) - {SUPPRESSION_CODE}
    if unknown:
        raise ConfigurationError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return codes


def _list_rules() -> str:
    lines = [f"{SUPPRESSION_CODE} suppression-hygiene  unused/blanket/rationale-free noqa"]
    for code, rule_class in sorted(RULE_CLASSES.items()):
        lines.append(f"{code} {rule_class.name}  {rule_class.summary}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except SystemExit as error:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(error.code or 0)

    if options.list_rules:
        print(_list_rules())
        return 0

    paths = [Path(raw) for raw in options.paths]
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(
            f"error: no such path: {', '.join(str(path) for path in missing)}",
            file=sys.stderr,
        )
        return 2

    try:
        root = options.root
        if root is None and options.config is not None:
            root = options.config.parent
        if root is None:
            root = find_project_root(paths[0]) or Path.cwd()
        config = load_config(root, pyproject=options.config)
        known = list(RULE_CLASSES)
        if options.select is not None:
            config = dataclasses.replace(
                config, select=_parse_codes(options.select, known)
            )
        if options.ignore is not None:
            config = dataclasses.replace(
                config, ignore=config.ignore | _parse_codes(options.ignore, known)
            )
        violations, files_scanned = analyze_paths(paths, config)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(_RENDERERS[options.format](violations, files_scanned))
    return 1 if violations else 0

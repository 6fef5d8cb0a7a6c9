"""Command-line front end for ``reprolint``.

Invoked three ways, all sharing :func:`main`:

* ``python -m repro.analysis [paths...]``
* ``autolearn lint [paths...]`` (the subcommand in :mod:`repro.cli`)
* programmatically, ``main(["src/repro", "--format", "json"])``.

Exit-code contract (stable; CI depends on it):

* **0** — the tree is clean (no finding survived pragmas and config).
* **1** — at least one finding survived.
* **2** — usage or configuration error: unknown rule in
  ``--select``/``--ignore``/``--disable``, or an unparseable pyproject.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.common.errors import ConfigurationError

from repro.analysis.base import all_rules, find_rule
from repro.analysis.config import LintConfig
from repro.analysis.reporters import REPORTERS
from repro.analysis.runner import lint_paths

__all__ = ["main", "build_parser", "add_lint_arguments", "run_lint_command"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="AST-based invariant linter for the AutoLearn reproduction",
    )
    add_lint_arguments(parser)
    return parser


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint CLI surface on ``parser`` (shared with autolearn)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: [tool.reprolint] include)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--pyproject",
        default=None,
        help="pyproject.toml to read [tool.reprolint] from "
        "(default: nearest pyproject.toml above the first path)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULE",
        help="run only these rules, by ID or name (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        "--disable",
        dest="ignore",
        action="append",
        default=[],
        metavar="RULE",
        help="disable a rule by ID or name (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule and exit",
    )


def _find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    node = start.resolve()
    if node.is_file():
        node = node.parent
    for candidate in [node, *node.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _list_rules() -> str:
    rows = [f"{'ID':6s} {'severity':8s} {'name':18s} description"]
    for rule in all_rules():
        rows.append(
            f"{rule.id:6s} {str(rule.severity):8s} {rule.name:18s} "
            f"{rule.description}"
        )
    return "\n".join(rows)


def _unknown_rules(specs: list[str]) -> list[str]:
    return [spec for spec in specs if find_rule(spec) is None]


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    try:
        return _run_lint(args)
    except ConfigurationError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2


def _run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(_list_rules())
        return 0
    for flag, specs in (("--select", args.select), ("--ignore", args.ignore)):
        unknown = _unknown_rules(specs)
        if unknown:
            print(
                f"reprolint: unknown rule(s) in {flag}: {', '.join(unknown)} "
                "(see --list-rules)",
                file=sys.stderr,
            )
            return 2

    if args.pyproject is not None:
        config = LintConfig.from_pyproject(Path(args.pyproject))
    else:
        anchor = Path(args.paths[0]) if args.paths else Path.cwd()
        pyproject = _find_pyproject(anchor)
        config = (
            LintConfig.from_pyproject(pyproject)
            if pyproject is not None
            else LintConfig()
        )
    if args.select:
        config = replace(config, select=config.select + tuple(args.select))
    if args.ignore:
        config = replace(config, disable=config.disable + tuple(args.ignore))
    result = lint_paths(args.paths or list(config.include), config)
    print(REPORTERS[args.format](result))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.analysis``."""
    return run_lint_command(build_parser().parse_args(argv))

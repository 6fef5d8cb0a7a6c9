"""RL301/RL302/RL303 — ``__all__`` consistency.

Every module in the repo declares ``__all__`` — it is the public-API
contract that ``from repro.x import *`` and the docs rely on.  Three
rules keep it honest:

* **RL301** — a name listed in ``__all__`` is not defined at module top
  level (a stale export; star-imports would raise ``AttributeError``).
* **RL302** — a public top-level ``def``/``class`` is missing from
  ``__all__`` (an accidental API; either list it or underscore it).
* **RL303** — a module with public definitions has no ``__all__`` at
  all.  ``__main__.py`` and ``conftest.py`` are exempt by default.

Modules that build ``__all__`` dynamically (concatenation, comprehension)
are skipped: a lint pass should not evaluate code.
"""

from __future__ import annotations

import ast

from repro.analysis.base import LintPass, register
from repro.analysis.findings import Rule, Severity

__all__ = ["ExportsPass", "RL301", "RL302", "RL303"]

RL301 = Rule(
    id="RL301",
    name="all-undefined",
    description="__all__ lists a name not defined at module top level.",
)

RL302 = Rule(
    id="RL302",
    name="all-missing",
    description="Public top-level def/class missing from __all__.",
    severity=Severity.WARNING,
)

RL303 = Rule(
    id="RL303",
    name="missing-all",
    description="Module with public definitions declares no __all__.",
    default_exclude=("*/__main__.py", "__main__.py", "*/conftest.py", "conftest.py"),
)


def _top_level_names(body: list[ast.stmt]) -> set[str]:
    """Names bound at module top level (recursing into if/try blocks)."""
    names: set[str] = set()
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                names.update(_target_names(target))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            names.update(_target_names(stmt.target))
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                names.add(alias.asname or alias.name)
        elif isinstance(stmt, ast.If):
            names |= _top_level_names(stmt.body) | _top_level_names(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            names |= _top_level_names(stmt.body)
            for handler in stmt.handlers:
                names |= _top_level_names(handler.body)
            names |= _top_level_names(stmt.orelse) | _top_level_names(stmt.finalbody)
    return names


def _target_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        return {name for elt in target.elts for name in _target_names(elt)}
    return set()


def _public_defs(body: list[ast.stmt]) -> list[ast.stmt]:
    """Public top-level def/class statements (recursing into if/try)."""
    defs: list[ast.stmt] = []
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not stmt.name.startswith("_"):
                defs.append(stmt)
        elif isinstance(stmt, ast.If):
            defs += _public_defs(stmt.body) + _public_defs(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            defs += _public_defs(stmt.body)
    return defs


@register
class ExportsPass(LintPass):
    """Cross-check ``__all__`` against the module's actual top level."""

    rules = (RL301, RL302, RL303)

    def visit_Module(self, node: ast.Module) -> None:
        exported = self._find_all(node)
        public = _public_defs(node.body)
        if exported is None:
            if public:
                self.report(
                    RL303,
                    public[0],
                    f"module defines {len(public)} public name(s) but no __all__",
                )
            return
        defined = _top_level_names(node.body)
        seen: set[str] = set()
        for name_node in exported:
            name = name_node.value
            if name in seen:
                self.report(RL301, name_node, f"duplicate __all__ entry '{name}'")
            seen.add(name)
            if name not in defined:
                self.report(
                    RL301,
                    name_node,
                    f"__all__ lists '{name}', which is not defined in the module",
                )
        for stmt in public:
            if stmt.name not in seen:
                self.report(
                    RL302,
                    stmt,
                    f"public {type(stmt).__name__.replace('Def', '').lower()} "
                    f"'{stmt.name}' is missing from __all__",
                )

    def _find_all(self, node: ast.Module) -> list[ast.Constant] | None:
        """The string constants of ``__all__``, or None.

        ``None`` also covers dynamic ``__all__`` (concatenation,
        comprehension): a lint pass should not evaluate code.
        """
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                continue
            if not isinstance(stmt.value, (ast.List, ast.Tuple)):
                return None
            elements: list[ast.Constant] = []
            for elt in stmt.value.elts:
                if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                    return None
                elements.append(elt)
            return elements
        return None
    # visit_Module handles everything; no generic_visit needed (the pass
    # deliberately ignores nested scopes).

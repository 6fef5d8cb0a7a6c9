"""RL401 — mutable default arguments.

A ``def f(x=[])`` default is evaluated once at definition time and
shared across calls — state leaks between invocations, which in this
codebase means state leaks between *supposedly independent seeded
runs*.  Flags list/dict/set displays and comprehensions, and calls to
``list``/``dict``/``set``/``bytearray`` in default position.
"""

from __future__ import annotations

import ast

from repro.analysis.base import LintPass, register
from repro.analysis.findings import Rule

__all__ = ["MutableDefaultPass", "RL401"]

RL401 = Rule(
    id="RL401",
    name="mutable-default",
    description=(
        "Mutable default argument (list/dict/set) is shared across calls; "
        "default to None and build inside the function."
    ),
)

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})


def _is_mutable(node: ast.expr) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


@register
class MutableDefaultPass(LintPass):
    """Flag mutable values in positional and keyword-only defaults."""

    rules = (RL401,)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check(node)
        self.generic_visit(node)

    def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                args.defaults):
            if _is_mutable(default):
                self._flag(node, default, arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and _is_mutable(default):
                self._flag(node, default, arg.arg)

    def _flag(self, func: ast.AST, default: ast.expr, param: str) -> None:
        label = getattr(func, "name", "<lambda>")
        self.report(
            RL401,
            default,
            f"mutable default for parameter '{param}' of '{label}'",
        )

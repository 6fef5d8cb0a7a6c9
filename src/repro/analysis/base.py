"""The ``LintPass`` base class and the pass/rule registries.

A pass is an :class:`ast.NodeVisitor` instantiated once per file.  It
declares the :class:`~repro.analysis.findings.Rule` objects it can emit;
:meth:`LintPass.report` funnels every emission through the shared
suppression logic (global disables, per-rule path exemptions, inline
``# reprolint: disable=...`` pragmas) so individual passes only contain
detection logic.
"""

from __future__ import annotations

import ast

from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.findings import Finding, Rule

__all__ = ["LintPass", "register", "all_passes", "all_rules", "find_rule"]

_REGISTRY: list[type["LintPass"]] = []


def register(cls: type["LintPass"]) -> type["LintPass"]:
    """Class decorator adding a pass to the global registry."""
    if not cls.rules:
        raise ValueError(f"pass {cls.__name__} declares no rules")
    _REGISTRY.append(cls)
    return cls


def all_passes() -> tuple[type["LintPass"], ...]:
    """Every registered pass class, in registration order."""
    from repro.analysis import passes  # noqa: F401  (triggers registration)

    return tuple(_REGISTRY)


def all_rules() -> tuple[Rule, ...]:
    """Every rule of every registered pass, sorted by rule ID."""
    return tuple(
        sorted(
            (rule for cls in all_passes() for rule in cls.rules),
            key=lambda rule: rule.id,
        )
    )


def find_rule(spec: str) -> Rule | None:
    """Look up a rule by ID or symbolic name."""
    for rule in all_rules():
        if spec in (rule.id, rule.name):
            return rule
    return None


class LintPass(ast.NodeVisitor):
    """Base class for one lint pass over one module.

    Subclasses declare ``rules`` and implement ``visit_*`` methods that
    call :meth:`report`.  A pass may emit several distinct rules (the
    error-hierarchy pass covers bare excepts, broad excepts, and
    non-``ReproError`` raises).
    """

    rules: tuple[Rule, ...] = ()

    def __init__(
        self,
        ctx: ModuleContext,
        index: ProjectIndex,
        config: LintConfig,
    ) -> None:
        self.ctx = ctx
        self.index = index
        self.config = config
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        """Visit the module and return this pass's findings."""
        if any(self.config.rule_applies(rule, self.ctx.path) for rule in self.rules):
            self.visit(self.ctx.tree)
        return self.findings

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        """Emit a finding at ``node`` unless suppressed."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if not self.config.rule_applies(rule, self.ctx.path):
            return
        if self.ctx.suppressed(line, rule):
            return
        self.findings.append(
            Finding(
                path=str(self.ctx.path),
                line=line,
                col=col,
                rule_id=rule.id,
                rule_name=rule.name,
                severity=self.config.severity_for(rule),
                message=message,
            )
        )

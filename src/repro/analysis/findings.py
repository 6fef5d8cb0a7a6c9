"""Finding and rule data types for the ``reprolint`` framework.

A :class:`Rule` describes one invariant the linter enforces (stable ID,
symbolic name, severity, prose).  A :class:`Finding` is one concrete
violation at a file/line/column.  Findings sort naturally by location so
reports are stable across runs and platforms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Severity", "Rule", "Finding"]


class Severity(enum.Enum):
    """How serious a finding is.  Any finding fails the lint run."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Rule:
    """One enforced invariant, with a stable machine-readable identity.

    ``id`` is the stable code (``RL001``); ``name`` is the symbolic
    spelling accepted in pragmas and configuration (``wall-clock``).
    ``default_exclude`` holds path globs where the rule never applies
    (e.g. the wall-clock ban is lifted under ``benchmarks/``).
    """

    id: str
    name: str
    description: str
    severity: Severity = Severity.ERROR
    default_exclude: tuple[str, ...] = ()

    def matches(self, spec: str) -> bool:
        """True if ``spec`` (a pragma/config token) selects this rule."""
        return spec in (self.id, self.name, "all")


@dataclass(frozen=True, order=True)
class Finding:
    """One violation: where it is, which rule, and what went wrong."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str = field(compare=False)
    severity: Severity = field(compare=False)
    message: str = field(compare=False)

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (used by the JSON reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "name": self.rule_name,
            "severity": str(self.severity),
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line:col: RLxxx [name] message`` (the text reporter row)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.rule_name}] {self.message}"
        )

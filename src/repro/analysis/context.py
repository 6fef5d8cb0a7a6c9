"""Parsed-module context and the project-wide index façade.

The runner parses every file once into a :class:`ModuleContext` (AST,
source lines, suppression pragmas, dotted module name) and folds all of
them into a :class:`ProjectIndex` before any pass runs.  Passes that
need whole-program knowledge — the error-hierarchy pass resolving
whether a raised class descends from ``ReproError``, the dataflow pass
chasing scheduler callbacks — query the index, which fronts the import
graph / class hierarchy / call graph in :mod:`repro.analysis.graph`.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.graph import ClassHierarchy, ProjectGraph, extract_shard

__all__ = ["ModuleContext", "ProjectIndex", "parse_pragmas"]

_PRAGMA_RE = re.compile(r"reprolint:\s*disable=([A-Za-z0-9_,\-]+)")


def parse_pragmas(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule specs suppressed on that line.

    Pragmas are comments of the form ``# reprolint: disable=RL001`` (or
    the symbolic rule name, or ``all``); several rules may be listed
    comma-separated.  Only genuine comments count — the pattern inside a
    string literal is ignored, which is why this tokenises instead of
    regex-scanning raw lines.
    """
    pragmas: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            specs = frozenset(
                spec.strip() for spec in match.group(1).split(",") if spec.strip()
            )
            if specs:
                line = tok.start[0]
                pragmas[line] = pragmas.get(line, frozenset()) | specs
    except tokenize.TokenError:
        pass  # unterminated constructs: the parser reports these, not us
    return pragmas


@dataclass
class ModuleContext:
    """Everything a pass needs to know about one parsed file."""

    path: Path
    source: str
    tree: ast.Module
    module: str  # dotted name, e.g. "repro.sim.tracks" ("" if unknown)
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """Top-level package under ``repro`` ("" for root modules).

        ``repro.sim.tracks`` -> ``sim``; ``repro/sim/__init__.py`` (whose
        module is ``repro.sim``) -> ``sim``; root modules like
        ``repro.cli`` -> ``""`` (the top layer, exempt from layering).
        """
        parts = self.module.split(".")
        if parts[0] != "repro":
            return ""
        if len(parts) > 2 or (len(parts) == 2 and self.path.name == "__init__.py"):
            return parts[1]
        return ""

    @classmethod
    def from_source(cls, path: Path, source: str) -> "ModuleContext":
        """Parse ``source`` as the file at ``path``; raises SyntaxError."""
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source, filename=str(path)),
            module=_dotted_module(path),
            pragmas=parse_pragmas(source),
        )

    @classmethod
    def from_path(cls, path: Path) -> "ModuleContext":
        return cls.from_source(path, path.read_text(encoding="utf-8"))

    def suppressed(self, line: int, rule) -> bool:
        """True if a pragma on ``line`` disables ``rule`` there."""
        specs = self.pragmas.get(line)
        if not specs:
            return False
        return any(rule.matches(spec) for spec in specs)


def _dotted_module(path: Path) -> str:
    """Best-effort dotted module name from a filesystem path.

    Walks up from the file looking for the ``repro`` package root; files
    outside any ``repro`` tree (test fixtures in temp dirs) get just
    their stem, which disables the package-aware rules for them.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro":
            return ".".join(parts[anchor:])
    return parts[-1] if parts else ""


class ProjectIndex:
    """Whole-program knowledge shared by every pass.

    Thin façade over :class:`repro.analysis.graph.ProjectGraph`: each
    linted file is condensed into a :class:`~repro.analysis.graph.ModuleShard`
    and folded into the project-wide class hierarchy, import graph, and
    call graph.  The class-hierarchy helpers RL203 relies on
    (:meth:`is_defined`, :meth:`is_repro_error`) delegate to the single
    :class:`~repro.analysis.graph.ClassHierarchy` so the resolution
    logic exists exactly once.
    """

    def __init__(self) -> None:
        self.graph = ProjectGraph()

    @property
    def classes(self) -> dict[str, set[str]]:
        """Bare class name -> bare base names (the hierarchy's table)."""
        return self.graph.hierarchy.classes

    def add_module(self, ctx: ModuleContext) -> None:
        """Condense ``ctx`` into its shard and fold it in."""
        self.graph.add_shard(extract_shard(str(ctx.path), ctx.module, ctx.tree))

    def is_defined(self, name: str) -> bool:
        """True if a class of this name is defined somewhere in the project."""
        return self.graph.hierarchy.is_defined(name)

    def is_repro_error(self, name: str) -> bool:
        """True if ``name`` transitively subclasses ``ReproError``."""
        return self.graph.hierarchy.is_repro_error(name)

    @staticmethod
    def is_builtin_exception(name: str) -> bool:
        """True if ``name`` is a builtin exception class (always allowed)."""
        return ClassHierarchy.is_builtin_exception(name)

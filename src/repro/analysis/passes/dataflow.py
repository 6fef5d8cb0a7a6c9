"""RL601/RL602/RL603 — determinism-hazard dataflow rules.

The byte-identical-per-seed guarantee dies quietly: a ``set`` iterated
into an export, ``os.listdir`` feeding a replay, ``id()`` breaking sort
ties by memory address, or two scheduler callbacks mutating one module
global at the same simulated timestamp.  Three rules catch these as
*flows*, not spellings:

* **RL601** — order-sensitive consumption (``for``, ``list``/``tuple``,
  comprehensions, ``join``, ``enumerate``/``zip``/``map``/``filter``,
  argument splats) of an unordered producer: ``set`` displays and
  comprehensions, ``set()``/``frozenset()``, ``os.listdir``/``os.scandir``,
  ``glob.glob``/``iglob``, and ``Path.iterdir/glob/rglob``.  Taint is
  tracked through local assignments inside each scope; order-insensitive
  consumers (``sorted``, ``min``/``max``/``sum``/``len``/``any``/``all``,
  ``set``/``frozenset``, membership tests, set comprehensions) are
  exempt, and ``sorted(...)`` anywhere in the flow neutralises it.
* **RL602** — ``id`` used as a sort key (``key=id`` or a lambda calling
  ``id``): memory-address ordering differs run to run.
* **RL603** — the simulated-time race: a module-level mutable container
  written from two or more distinct ``EventScheduler`` callbacks,
  resolved through the project call graph
  (:meth:`repro.analysis.graph.ProjectGraph.flow_findings`).  Two
  callbacks landing on the same timestamp execute in heap order, so
  shared-state writes from different callback chains are ordering
  hazards even in a single-threaded simulator.
"""

from __future__ import annotations

import ast
from types import SimpleNamespace

from repro.analysis.base import LintPass, register
from repro.analysis.findings import Rule
from repro.analysis.passes.imports import ImportTracker

__all__ = ["DataflowPass", "RL601", "RL602", "RL603"]

RL601 = Rule(
    id="RL601",
    name="unordered-iter",
    description=(
        "Order-sensitive iteration over an unordered producer (set, "
        "os.listdir, glob, Path.iterdir); wrap in sorted() so event order, "
        "serialisation, and exports stay deterministic."
    ),
)

RL602 = Rule(
    id="RL602",
    name="id-sort-key",
    description=(
        "id() used as a sort key orders by memory address, which differs "
        "across runs; sort by a stable attribute instead."
    ),
)

RL603 = Rule(
    id="RL603",
    name="sim-time-race",
    description=(
        "Module-level mutable state written from more than one scheduler "
        "callback; same-timestamp delivery order makes this a determinism "
        "race — keep per-entity state or route writes through one owner."
    ),
)

# Unordered producers spelled as resolved dotted calls.
_UNORDERED_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
# Unordered producers spelled as method calls (pathlib idiom).
_UNORDERED_METHODS = frozenset({"iterdir", "glob", "rglob", "scandir"})
# Order-insensitive consumers: iterating these over an unordered
# producer cannot leak nondeterminism into the result.
_ORDER_FREE = frozenset(
    {"sorted", "set", "frozenset", "min", "max", "sum", "len", "any", "all"}
)
# Order-sensitive consumers taking the iterable as first argument
# (or every argument, for the zip family).
_ORDER_SENSITIVE_HEAD = frozenset({"list", "tuple", "iter", "enumerate"})
_ORDER_SENSITIVE_ALL = frozenset({"zip", "map", "filter"})
_SORTERS = frozenset({"sorted", "min", "max"})


@register
class DataflowPass(LintPass):
    """Track unordered-producer taint and whole-program flow hazards."""

    rules = (RL601, RL602, RL603)

    # ------------------------------------------------------------ scopes

    def visit_Module(self, node: ast.Module) -> None:
        self._tracker = ImportTracker(watched=("os", "glob"))
        self._tracker.collect(node)
        self._scopes: list[dict[str, str]] = [{}]
        # Comprehensions passed straight into an order-free consumer
        # (sum(x for x in some_set)) are exempt; their node ids land here.
        self._order_free_nodes: set[int] = set()
        self._report_flow_hazards()
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    # ------------------------------------------------------ RL603 (flow)

    def _report_flow_hazards(self) -> None:
        for flow in self.index.graph.flow_findings_for(str(self.ctx.path)):
            if flow.kind != "race":
                continue
            roots = ", ".join(flow.roots)
            self.report(
                RL603,
                SimpleNamespace(lineno=flow.line, col_offset=flow.col),
                f"module-level '{flow.subject}' is written from "
                f"{len(flow.roots)} scheduler callbacks ({roots}); "
                "same-timestamp delivery order makes this a determinism race",
            )

    # ------------------------------------------------------ RL601 (taint)

    def _unordered(self, node: ast.expr) -> str | None:
        """Description of why ``node`` yields unordered elements, or None."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Name):
            for scope in reversed(self._scopes):
                if node.id in scope:
                    return scope[node.id]
            return None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._unordered(node.left) or self._unordered(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return f"{func.id}(...)"
                resolved = self._tracker.resolve(func)
                if resolved in _UNORDERED_CALLS:
                    return f"{resolved}(...)"
                return None
            if isinstance(func, ast.Attribute):
                resolved = self._tracker.resolve(func)
                if resolved in _UNORDERED_CALLS:
                    return f"{resolved}(...)"
                if func.attr in _UNORDERED_METHODS and resolved is None:
                    return f".{func.attr}() results"
        return None

    def _check_consumption(self, node: ast.expr, where: str) -> None:
        desc = self._unordered(node)
        if desc is None:
            return
        self.report(
            RL601,
            node,
            f"{where} over {desc} has nondeterministic order; "
            "wrap it in sorted(...)",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        desc = self._unordered(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if desc is not None:
                    self._scopes[-1][target.id] = desc
                else:
                    self._scopes[-1].pop(target.id, None)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            if isinstance(node.target, ast.Name):
                desc = self._unordered(node.value)
                if desc is not None:
                    self._scopes[-1][node.target.id] = desc
                else:
                    self._scopes[-1].pop(node.target.id, None)

    def visit_For(self, node: ast.For) -> None:
        self._check_consumption(node.iter, "iteration")
        self.generic_visit(node)

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def _check_comprehension(
        self, node: ast.ListComp | ast.DictComp | ast.GeneratorExp
    ) -> None:
        if id(node) not in self._order_free_nodes:
            for gen in node.generators:
                self._check_consumption(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension  # type: ignore[assignment]
    visit_DictComp = _check_comprehension  # type: ignore[assignment]
    visit_GeneratorExp = _check_comprehension  # type: ignore[assignment]

    def visit_Starred(self, node: ast.Starred) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_consumption(node.value, "argument splat")
        self.generic_visit(node)

    # -------------------------------------------------- RL601/602 (calls)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr

        if name in _SORTERS or (isinstance(func, ast.Attribute) and name == "sort"):
            self._check_sort_key(node, name)

        if isinstance(func, ast.Name) and name in _ORDER_FREE:
            for arg in node.args:
                self._order_free_nodes.add(id(arg))

        if isinstance(func, ast.Name) and name in _ORDER_SENSITIVE_HEAD:
            if node.args:
                self._check_consumption(node.args[0], f"{name}(...)")
        elif isinstance(func, ast.Name) and name in _ORDER_SENSITIVE_ALL:
            args = node.args[1:] if name in ("map", "filter") else node.args
            for arg in args:
                self._check_consumption(arg, f"{name}(...)")
        elif isinstance(func, ast.Attribute) and name == "join" and node.args:
            self._check_consumption(node.args[0], "str.join")
        self.generic_visit(node)

    def _check_sort_key(self, node: ast.Call, name: str) -> None:
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            value = kw.value
            uses_id = (
                isinstance(value, ast.Name) and value.id == "id"
            ) or (
                isinstance(value, ast.Lambda)
                and any(
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "id"
                    for child in ast.walk(value.body)
                )
            )
            if uses_id:
                self.report(
                    RL602,
                    value,
                    f"'{name}' keyed on id() orders by memory address, "
                    "which differs across runs; use a stable attribute",
                )

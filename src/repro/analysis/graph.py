"""Project-wide import graph, class hierarchy, and best-effort call graph.

Single-file AST rules cannot see an unseeded RNG threaded through three
modules or two scheduler callbacks mutating the same dict at the same
simulated timestamp.  This module gives every pass whole-program
structure without evaluating any code:

* each linted file is condensed into a :class:`ModuleShard` — a plain
  summary of its classes, imports, functions, call references,
  scheduler callbacks, and module-level mutable state;
* :class:`ProjectGraph` folds shards into a class hierarchy
  (:class:`ClassHierarchy`), an import graph, and a name-resolution
  call graph, then answers flow queries: which functions are reachable
  from which :class:`~repro.common.clock.EventScheduler` callbacks, which
  module globals are written from more than one callback (the
  simulated-time race), and which module-level RNG streams are shared
  across callbacks (stream sharing).

Resolution is deliberately best-effort: bare names resolve through the
module's imports and top-level definitions, ``self.method`` resolves
through the class hierarchy, and anything dynamic (``getattr``, dict
dispatch, decorators swapping callables) is silently skipped.  A lint
pass must never guess wrong loudly.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

__all__ = [
    "CALLBACK_SCHEDULERS",
    "MUTATOR_METHODS",
    "RNG_CONSTRUCTORS",
    "CallRef",
    "FunctionInfo",
    "GlobalSlot",
    "ModuleShard",
    "extract_shard",
    "ClassHierarchy",
    "FlowFinding",
    "ProjectGraph",
]

# Attribute names whose second positional argument is an event callback.
CALLBACK_SCHEDULERS = frozenset({"schedule_at", "schedule_in"})

# Method calls that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
        "extendleft", "sort", "reverse",
    }
)

# Callables whose result is an RNG stream (bare-name spellings; the
# dotted numpy spellings are already banned by RL101 outside common/rng).
RNG_CONSTRUCTORS = frozenset({"ensure_rng", "default_rng", "Random", "spawn"})

_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "OrderedDict", "Counter"}
)


@dataclass(frozen=True)
class CallRef:
    """One unresolved reference out of a function body.

    ``kind`` is ``"name"`` (bare ``f``), ``"self"`` (``self.m`` /
    ``cls.m``), ``"dotted"`` (``alias.attr``), or ``"local"`` (an
    already-qualified target such as a lambda pseudo-function).
    """

    kind: str
    target: str


@dataclass
class FunctionInfo:
    """Flow summary of one function (or lambda / module body)."""

    line: int = 0
    calls: list[CallRef] = field(default_factory=list)
    callbacks: list[CallRef] = field(default_factory=list)
    global_writes: list[tuple[str, int, int]] = field(default_factory=list)
    global_reads: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class GlobalSlot:
    """A module-level binding of interest (mutable container or RNG)."""

    name: str
    line: int
    col: int
    kind: str  # "list" / "dict" / "set" / ... or the RNG constructor name


@dataclass
class ModuleShard:
    """Whole-program summary of one parsed module."""

    path: str
    module: str
    classes: dict[str, dict] = field(default_factory=dict)
    top_functions: list[str] = field(default_factory=list)
    imports: list[str] = field(default_factory=list)
    bindings: dict[str, str] = field(default_factory=dict)
    defs: dict[str, FunctionInfo] = field(default_factory=dict)
    mutables: list[GlobalSlot] = field(default_factory=list)
    rng_slots: list[GlobalSlot] = field(default_factory=list)


# --------------------------------------------------------------- extraction


def _base_name(node: ast.expr) -> str | None:
    """Bare class name of a base expression (``errors.TubError`` -> ``TubError``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] bases
        return _base_name(node.value)
    return None


def _mutable_kind(node: ast.expr) -> str | None:
    """Container kind of a module-level RHS, or None if not mutable."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in _MUTABLE_CTORS:
            return node.func.id
    return None


def _rng_ctor(node: ast.expr) -> str | None:
    """RNG-constructor name if the RHS builds a random stream."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return name if name in RNG_CONSTRUCTORS else None


class _FunctionExtractor(ast.NodeVisitor):
    """Summarise one function body into a :class:`FunctionInfo`.

    Nested ``def``s are folded into the enclosing function (their calls
    and writes happen, at the latest, when the closure runs); lambdas
    passed as scheduler callbacks become pseudo-functions so the race
    detector can treat each one as its own callback root.
    """

    def __init__(self, shard: ModuleShard, qual: str, info: FunctionInfo) -> None:
        self.shard = shard
        self.qual = qual
        self.info = info
        self._globals: set[str] = set()

    def visit_Global(self, node: ast.Global) -> None:
        self._globals.update(node.names)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for stmt in node.body:  # fold nested defs into the parent
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target)
        if isinstance(node.target, ast.Name):
            self.info.global_reads.append(node.target.id)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_store(target)

    def _record_store(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name) and target.id in self._globals:
            self.info.global_writes.append(
                (target.id, target.lineno, target.col_offset)
            )
        elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            self.info.global_writes.append(
                (target.value.id, target.lineno, target.col_offset)
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.info.global_reads.append(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # "self.handler" referenced without a call still links the
        # method into the flow graph (handlers get stored and invoked).
        if (
            isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            self.info.calls.append(CallRef("self", node.attr))
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self.info.calls.append(CallRef("name", func.id))
            self.info.global_reads.append(func.id)
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                if func.value.id in ("self", "cls"):
                    self.info.calls.append(CallRef("self", func.attr))
                else:
                    self.info.calls.append(
                        CallRef("dotted", f"{func.value.id}.{func.attr}")
                    )
                    if func.attr in MUTATOR_METHODS:
                        self.info.global_writes.append(
                            (func.value.id, func.lineno, func.col_offset)
                        )
                    self.info.global_reads.append(func.value.id)
            if func.attr in CALLBACK_SCHEDULERS and len(node.args) >= 2:
                self._record_callback(node.args[1])
            if not isinstance(func.value, ast.Name):
                self.visit(func.value)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def _record_callback(self, arg: ast.expr) -> None:
        if isinstance(arg, ast.Lambda):
            pseudo = f"{self.qual}.<lambda:{arg.lineno}>" if self.qual else (
                f"<lambda:{arg.lineno}>"
            )
            info = FunctionInfo(line=arg.lineno)
            _FunctionExtractor(self.shard, pseudo, info).visit(arg.body)
            self.shard.defs[pseudo] = info
            self.info.callbacks.append(CallRef("local", pseudo))
        elif isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name) and (
            arg.value.id in ("self", "cls")
        ):
            self.info.callbacks.append(CallRef("self", arg.attr))
        elif isinstance(arg, ast.Name):
            self.info.callbacks.append(CallRef("name", arg.id))


def extract_shard(path: str, module: str, tree: ast.Module) -> ModuleShard:
    """Condense one parsed module into its :class:`ModuleShard`."""
    shard = ModuleShard(path=path, module=module)
    module_info = FunctionInfo(line=1)

    def _extract_function(
        qual: str, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        info = FunctionInfo(line=node.lineno)
        extractor = _FunctionExtractor(shard, qual, info)
        for stmt in node.body:
            extractor.visit(stmt)
        shard.defs[qual] = info

    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                shard.imports.append(alias.name)
                shard.bindings[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0 and stmt.module:
            shard.imports.append(stmt.module)
            for alias in stmt.names:
                if alias.name != "*":
                    shard.bindings[alias.asname or alias.name] = (
                        f"{stmt.module}.{alias.name}"
                    )

    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            methods: list[str] = []
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(sub.name)
                    _extract_function(f"{stmt.name}.{sub.name}", sub)
            bases = sorted(
                {name for base in stmt.bases if (name := _base_name(base))}
            )
            shard.classes[stmt.name] = {"bases": bases, "methods": sorted(methods)}
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            shard.top_functions.append(stmt.name)
            _extract_function(stmt.name, stmt)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if not isinstance(target, ast.Name) or target.id == "__all__":
                    continue
                kind = _mutable_kind(stmt.value)
                if kind is not None:
                    shard.mutables.append(
                        GlobalSlot(target.id, stmt.lineno, stmt.col_offset, kind)
                    )
                ctor = _rng_ctor(stmt.value)
                if ctor is not None:
                    shard.rng_slots.append(
                        GlobalSlot(target.id, stmt.lineno, stmt.col_offset, ctor)
                    )
            _FunctionExtractor(shard, "", module_info).visit(stmt)
        else:
            _FunctionExtractor(shard, "", module_info).visit(stmt)
    shard.defs[""] = module_info
    return shard


# ------------------------------------------------------------- hierarchy


class ClassHierarchy:
    """Bare-name class hierarchy across every linted file.

    ``classes`` maps a bare class name to the set of bare base-class
    names seen anywhere in the project (a class defined twice merges its
    bases — acceptable for a lint pass; the repo keeps class names
    unique).  This is the single home of the resolution logic RL203 and
    the call graph share.
    """

    def __init__(self) -> None:
        self.classes: dict[str, set[str]] = {}
        self._repro_cache: dict[str, bool] = {}

    def add(self, name: str, bases: set[str] | list[str]) -> None:
        self.classes.setdefault(name, set()).update(bases)
        self._repro_cache.clear()

    def is_defined(self, name: str) -> bool:
        """True if a class of this name is defined somewhere in the project."""
        return name in self.classes

    def is_repro_error(self, name: str, _seen: frozenset[str] = frozenset()) -> bool:
        """True if ``name`` transitively subclasses ``ReproError``."""
        if name == "ReproError":
            return True
        if name in self._repro_cache:
            return self._repro_cache[name]
        if name in _seen or name not in self.classes:
            return False
        result = any(
            self.is_repro_error(base, _seen | {name})
            for base in self.classes[name]
        )
        self._repro_cache[name] = result
        return result

    def mro_names(self, name: str) -> list[str]:
        """Best-effort linearisation: ``name`` then ancestors, BFS order."""
        order: list[str] = []
        queue = [name]
        seen: set[str] = set()
        while queue:
            cls = queue.pop(0)
            if cls in seen:
                continue
            seen.add(cls)
            order.append(cls)
            queue.extend(sorted(self.classes.get(cls, ())))
        return order

    @staticmethod
    def is_builtin_exception(name: str) -> bool:
        """True if ``name`` is a builtin exception class (always allowed)."""
        obj = getattr(builtins, name, None)
        return isinstance(obj, type) and issubclass(obj, BaseException)


# ------------------------------------------------------------ the graph


@dataclass(frozen=True)
class FlowFinding:
    """One whole-program hazard, attributed to a concrete file/line."""

    path: str
    line: int
    col: int
    kind: str  # "race" or "shared-rng"
    subject: str  # the global variable / stream name
    roots: tuple[str, ...]  # the callback roots that conflict


class ProjectGraph:
    """Import graph + class hierarchy + call graph over module shards."""

    def __init__(self) -> None:
        self.shards: dict[str, ModuleShard] = {}  # module -> shard
        self.hierarchy = ClassHierarchy()
        self._class_home: dict[str, str] = {}  # bare class name -> module
        self._edges: dict[str, set[str]] | None = None
        self._roots: list[str] | None = None
        self._reach: dict[str, frozenset[str]] = {}
        self._flow: list[FlowFinding] | None = None

    # -- construction

    def add_shard(self, shard: ModuleShard) -> None:
        self.shards[shard.module or shard.path] = shard
        for name, info in shard.classes.items():
            self.hierarchy.add(name, info["bases"])
            self._class_home.setdefault(name, shard.module)
        self._edges = None
        self._roots = None
        self._reach.clear()
        self._flow = None

    # -- import graph

    def import_edges(self) -> dict[str, frozenset[str]]:
        """module -> imported modules, restricted to modules in the project."""
        known = set(self.shards)
        out: dict[str, frozenset[str]] = {}
        for module, shard in self.shards.items():
            targets = set()
            for imp in shard.imports:
                for candidate in (imp, imp.rsplit(".", 1)[0]):
                    if candidate in known and candidate != module:
                        targets.add(candidate)
            out[module] = frozenset(targets)
        return out

    # -- call graph

    def _method_home(self, cls: str, method: str) -> str | None:
        """Qualified name of ``method`` resolved up the hierarchy from ``cls``."""
        for ancestor in self.hierarchy.mro_names(cls):
            home = self._class_home.get(ancestor)
            if home is None:
                continue
            shard = self.shards.get(home)
            if shard and method in shard.classes.get(ancestor, {}).get("methods", ()):
                return f"{home}.{ancestor}.{method}"
        return None

    def _resolve(self, module: str, qual: str, ref: CallRef) -> str | None:
        """Project-qualified target of one :class:`CallRef`, or ``None``."""
        shard = self.shards.get(module)
        if shard is None:
            return None
        if ref.kind == "local":
            return f"{module}.{ref.target}" if module else ref.target
        if ref.kind == "self":
            cls = qual.split(".")[0] if "." in qual else None
            if cls and cls in shard.classes:
                return self._method_home(cls, ref.target)
            return None
        if ref.kind == "name":
            name = ref.target
            if name in shard.top_functions:
                return f"{module}.{name}"
            if name in shard.classes:
                return self._method_home(name, "__init__")
            bound = shard.bindings.get(name)
            if bound is not None:
                return self._resolve_dotted(bound)
            return None
        if ref.kind == "dotted":
            head, _, attr = ref.target.partition(".")
            bound = shard.bindings.get(head)
            if bound is not None:
                return self._resolve_dotted(f"{bound}.{attr}")
        return None

    def _resolve_dotted(self, dotted: str) -> str | None:
        """Resolve ``package.module.attr`` against project shards."""
        module, _, attr = dotted.rpartition(".")
        shard = self.shards.get(module)
        if shard is None or not attr:
            return None
        if attr in shard.top_functions:
            return f"{module}.{attr}"
        if attr in shard.classes:
            return self._method_home(attr, "__init__")
        return None

    def edges(self) -> dict[str, set[str]]:
        """Resolved call-graph edges: qualified caller -> qualified callees."""
        if self._edges is None:
            self._edges = {}
            for module, shard in self.shards.items():
                for qual, info in shard.defs.items():
                    caller = f"{module}.{qual}" if qual else module
                    targets = self._edges.setdefault(caller, set())
                    for ref in info.calls:
                        resolved = self._resolve(module, qual, ref)
                        if resolved is not None:
                            targets.add(resolved)
        return self._edges

    def callback_roots(self) -> list[str]:
        """Qualified functions scheduled as EventScheduler callbacks."""
        if self._roots is None:
            roots: set[str] = set()
            for module, shard in self.shards.items():
                for qual, info in shard.defs.items():
                    for ref in info.callbacks:
                        resolved = self._resolve(module, qual, ref)
                        if resolved is not None:
                            roots.add(resolved)
            self._roots = sorted(roots)
        return self._roots

    def reachable(self, root: str) -> frozenset[str]:
        """Every qualified function reachable from ``root`` (inclusive)."""
        cached = self._reach.get(root)
        if cached is not None:
            return cached
        edges = self.edges()
        seen: set[str] = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        result = frozenset(seen)
        self._reach[root] = result
        return result

    # -- flow analyses

    def flow_findings(self) -> list[FlowFinding]:
        """All determinism-race and shared-RNG hazards in the project."""
        if self._flow is not None:
            return self._flow
        roots = self.callback_roots()
        reach = {root: self.reachable(root) for root in roots}

        findings: list[FlowFinding] = []
        for module, shard in self.shards.items():
            mutable_names = {slot.name for slot in shard.mutables}
            rng_slots = {slot.name: slot for slot in shard.rng_slots}
            if not mutable_names and not rng_slots:
                continue
            # Which roots reach each function of this module?
            writers: dict[str, list[tuple[str, int, int, set[str]]]] = {}
            rng_readers: dict[str, set[str]] = {}
            for qual, info in shard.defs.items():
                qualified = f"{module}.{qual}" if qual else module
                reaching = {root for root in roots if qualified in reach[root]}
                for var, line, col in info.global_writes:
                    if var in mutable_names:
                        writers.setdefault(var, []).append(
                            (qualified, line, col, reaching)
                        )
                if not reaching:
                    continue
                for name in info.global_reads:
                    if name in rng_slots:
                        rng_readers.setdefault(name, set()).update(reaching)
            for var, sites in sorted(writers.items()):
                all_roots = sorted(set().union(*(r for _, _, _, r in sites)))
                if len(all_roots) < 2:
                    continue
                for qualified, line, col, reaching in sites:
                    if not reaching:
                        continue
                    findings.append(
                        FlowFinding(
                            path=shard.path,
                            line=line,
                            col=col,
                            kind="race",
                            subject=var,
                            roots=tuple(all_roots),
                        )
                    )
            for name, reaching in sorted(rng_readers.items()):
                if len(reaching) < 2:
                    continue
                slot = rng_slots[name]
                findings.append(
                    FlowFinding(
                        path=shard.path,
                        line=slot.line,
                        col=slot.col,
                        kind="shared-rng",
                        subject=name,
                        roots=tuple(sorted(reaching)),
                    )
                )
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.kind, f.subject))
        self._flow = findings
        return findings

    def flow_findings_for(self, path: str) -> list[FlowFinding]:
        """Hazards attributed to the file at ``path``."""
        return [f for f in self.flow_findings() if f.path == path]

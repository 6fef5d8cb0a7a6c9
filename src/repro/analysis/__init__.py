"""``repro.analysis`` — the "reprolint" AST-based invariant linter.

The reproduction's correctness rests on contracts that used to live
only in docstrings: no component reads the real wall clock
(``common/clock.py``), all randomness flows through
``common/rng.py``, every subsystem raises ``ReproError`` subclasses
(``common/errors.py``), public APIs are declared in ``__all__``, and
the package graph stays a DAG with ``common`` at the bottom.  This
package turns those contracts into enforced lint rules:

======  ==================  =================================================
ID      name                invariant
======  ==================  =================================================
RL001   wall-clock          no real wall-clock reads outside ``benchmarks/``
RL101   rng-outside-common  no direct numpy/stdlib RNG outside ``common/rng``
RL102   seed-ignored        public ``seed``/``rng`` params must be used
RL103   shared-rng-stream   scheduler callbacks do not share one RNG stream
RL201   bare-except         no bare ``except:``
RL202   broad-except        ``except Exception`` must re-raise or be justified
RL203   non-repro-raise     raised project classes subclass ``ReproError``
RL301   all-undefined       ``__all__`` names exist
RL302   all-missing         public defs are listed in ``__all__``
RL303   missing-all         modules declare ``__all__``
RL401   mutable-default     no mutable default arguments
RL501   layering            package imports respect the layer DAG
RL601   unordered-iter      no set/listdir/glob order reaching ordered sinks
RL602   id-sort-key         no sorting keyed on ``id()``
RL603   sim-time-race       no module state written by concurrent callbacks
======  ==================  =================================================

The RL103/RL6xx rules are whole-program: every file is condensed into a
:class:`~repro.analysis.graph.ModuleShard` and folded into a
:class:`~repro.analysis.graph.ProjectGraph` (import graph, class
hierarchy, best-effort call graph) that passes query through
:class:`~repro.analysis.context.ProjectIndex`.

Suppress a finding inline with ``# reprolint: disable=RL202`` (IDs or
symbolic names, comma-separated) and configure per-rule behaviour under
``[tool.reprolint]`` in ``pyproject.toml``.  Run ``autolearn lint`` or
``python -m repro.analysis``; ``--format json`` emits a machine-readable
report.
"""

from repro.analysis.base import LintPass, all_passes, all_rules, find_rule, register
from repro.analysis.cli import main
from repro.analysis.config import LintConfig, RuleConfig
from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.graph import ModuleShard, ProjectGraph, extract_shard
from repro.analysis.reporters import render_json, render_text
from repro.analysis.runner import LintResult, collect_files, lint_paths, lint_source

__all__ = [
    "LintPass",
    "register",
    "all_passes",
    "all_rules",
    "find_rule",
    "LintConfig",
    "RuleConfig",
    "ModuleContext",
    "ProjectIndex",
    "ModuleShard",
    "ProjectGraph",
    "extract_shard",
    "Finding",
    "Rule",
    "Severity",
    "LintResult",
    "lint_paths",
    "lint_source",
    "collect_files",
    "render_text",
    "render_json",
    "main",
]

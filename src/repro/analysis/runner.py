"""The lint driver: collect files, build the index, run every pass.

Two-phase on purpose: every file is parsed and folded into the
:class:`~repro.analysis.context.ProjectIndex` *before* any pass runs,
so whole-program rules (the ``ReproError`` hierarchy check) see classes
defined in files that happen to sort later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import all_passes
from repro.analysis.config import LintConfig, match_path
from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.findings import Finding, Rule, Severity

__all__ = ["LintResult", "lint_paths", "lint_source", "collect_files", "RL000"]

RL000 = Rule(
    id="RL000",
    name="parse-error",
    description="The file could not be parsed as Python.",
)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.WARNING)


def collect_files(
    paths: list[Path | str], config: LintConfig | None = None
) -> list[Path]:
    """Expand files/directories into the sorted list of lintable files."""
    config = config or LintConfig()
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if match_path(candidate, config.exclude):
                continue
            files.append(candidate)
    return files


def _parse_error(path: Path, line: int, col: int, message: str) -> Finding:
    return Finding(
        path=str(path),
        line=line,
        col=col,
        rule_id=RL000.id,
        rule_name=RL000.name,
        severity=Severity.ERROR,
        message=message,
    )


def lint_paths(
    paths: list[Path | str], config: LintConfig | None = None
) -> LintResult:
    """Lint ``paths`` (files or directories) and return sorted findings."""
    config = config or LintConfig()
    result = LintResult()
    index = ProjectIndex()
    contexts: list[ModuleContext] = []

    # Phase 1: parse every file and fold its shard into the project index.
    for path in collect_files(paths, config):
        try:
            ctx = ModuleContext.from_source(path, path.read_bytes().decode("utf-8"))
        except OSError as exc:
            result.findings.append(
                _parse_error(path, 1, 0, f"cannot read file: {exc}")
            )
            continue
        except SyntaxError as exc:
            result.findings.append(
                _parse_error(
                    path,
                    exc.lineno or 1,
                    (exc.offset or 1) - 1,
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        index.add_module(ctx)
        contexts.append(ctx)

    # Phase 2: judge each file against the complete index.
    result.files_checked = len(contexts)
    for ctx in contexts:
        for pass_cls in all_passes():
            result.findings.extend(pass_cls(ctx, index, config).run())
    result.findings.sort()
    return result


def lint_source(
    source: str,
    filename: str = "snippet.py",
    config: LintConfig | None = None,
    extra_sources: dict[str, str] | None = None,
) -> list[Finding]:
    """Lint an in-memory source string (the unit-test entry point).

    ``extra_sources`` maps filenames to additional file contents folded
    into the project index (but not themselves linted) — used to test
    cross-file resolution such as the class-hierarchy index.
    """
    config = config or LintConfig()
    index = ProjectIndex()
    ctx = ModuleContext.from_source(Path(filename), source)
    index.add_module(ctx)
    for name, text in (extra_sources or {}).items():
        index.add_module(ModuleContext.from_source(Path(name), text))
    findings: list[Finding] = []
    for pass_cls in all_passes():
        findings.extend(pass_cls(ctx, index, config).run())
    findings.sort()
    return findings

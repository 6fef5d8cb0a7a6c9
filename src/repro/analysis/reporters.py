"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json

from repro.analysis.runner import LintResult

__all__ = ["render_text", "render_json", "REPORTERS"]


def render_text(result: LintResult) -> str:
    """Human-readable report: one row per finding plus a summary line."""
    lines = [finding.render() for finding in result.findings]
    if result.ok:
        lines.append(f"reprolint: {result.files_checked} file(s) clean")
    else:
        lines.append(
            f"reprolint: {result.error_count} error(s), "
            f"{result.warning_count} warning(s) "
            f"in {result.files_checked} file(s)"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable key order, sorted findings)."""
    payload = {
        "files_checked": result.files_checked,
        "errors": result.error_count,
        "warnings": result.warning_count,
        "findings": [finding.to_dict() for finding in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


REPORTERS = {"text": render_text, "json": render_json}

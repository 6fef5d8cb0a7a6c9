"""Golden-trace regression harness.

Each traced library scenario in :data:`TRACE_SCENARIOS` is run at seed
0 and its full observable surface — normalized span tree, instant
events, metrics snapshot, text summary — is compared byte for byte
against ``tests/obs/golden/<name>.json``.

Any behavioural drift in the traced layers (batch sizing, routing,
fault timing, pipeline stage costs) shows up here as a readable JSON
diff.  To accept an intentional change::

    pytest tests/obs/test_golden_traces.py --update-goldens

which rewrites the files and skips (so a tier-1 run can never silently
regenerate its own expectations).
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path

import pytest

from repro.eval.library import scenario_spec
from repro.eval.runner import run_scenario
from repro.obs.export import chrome_trace, normalized_trace

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The library scenarios with a golden trace.
TRACE_SCENARIOS = (
    "pipeline-quickstart",
    "serve-load",
    "chaos-crash",
    "fleet-canary-chaos",
)


def run_trace_scenario(name: str, seed: int, work_dir: Path):
    return run_scenario(scenario_spec(name), seed=seed, work_dir=work_dir)


def render_scenario(name: str, seed: int, work_dir: Path) -> str:
    """The canonical golden text for one scenario run."""
    result = run_trace_scenario(name, seed=seed, work_dir=work_dir)
    payload = {
        "scenario": name,
        "seed": seed,
        "trace": normalized_trace(result.tracer),
        "metrics": result.metrics.snapshot(),
        "summary": result.summary.rstrip("\n").split("\n"),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", TRACE_SCENARIOS)
def test_golden_trace(name, request, tmp_path):
    current = render_scenario(name, 0, tmp_path)
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-goldens"):
        path.write_text(current)
        pytest.skip(f"golden {path.name} regenerated")
    assert path.exists(), (
        f"missing golden {path}; generate it with "
        "pytest tests/obs/test_golden_traces.py --update-goldens"
    )
    golden = path.read_text()
    if current != golden:
        diff = "\n".join(
            difflib.unified_diff(
                golden.splitlines(),
                current.splitlines(),
                fromfile=f"golden/{path.name}",
                tofile="current",
                lineterm="",
                n=3,
            )
        )
        pytest.fail(
            f"trace for scenario {name!r} drifted from its golden:\n{diff}"
        )


@pytest.mark.parametrize("name", TRACE_SCENARIOS)
def test_same_seed_same_bytes(name, tmp_path):
    """Two fresh runs at one seed export byte-identical artifacts."""
    first = run_trace_scenario(name, seed=3, work_dir=tmp_path / "a")
    second = run_trace_scenario(name, seed=3, work_dir=tmp_path / "b")
    assert chrome_trace(first.tracer) == chrome_trace(second.tracer)
    assert first.metrics.to_json() == second.metrics.to_json()
    assert first.summary == second.summary


def test_seed_changes_the_trace(tmp_path):
    """The golden form is sensitive: a different seed means different bytes."""
    a = render_scenario("serve-load", 0, tmp_path / "a")
    b = render_scenario("serve-load", 1, tmp_path / "b")
    assert a != b

"""The repo-wide self-lint: every invariant holds on the real tree.

This is the tier-1 gate the tentpole exists for — any future PR that
reads the wall clock, forks an unmanaged RNG stream, shares one stream
across scheduler callbacks, raises outside the ``ReproError`` hierarchy,
breaks ``__all__``, adds a mutable default, iterates a set into an
order-sensitive consumer, sorts by ``id()``, writes module state from
concurrent simulated-time callbacks, or inverts the package layering
fails here with the exact file and line.

The tree must be clean under the full rule set: any finding fails the
gate.  The companion test drives every rule against a deliberately-broken
fixture so the gate itself cannot silently rot.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import LintConfig, all_rules, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]

# One violation per rule, with the (1-based) line it must be reported on.
BROKEN_FIXTURE = textwrap.dedent(
    '''
    """A deliberately-broken module: one violation per reprolint rule."""

    import time
    import numpy as np
    from repro.ml.layers import Dense

    __all__ = ["vanished", "simulate", "collect", "fail", "load", "probe"]


    def simulate(track, seed=0):
        return track


    def collect(records=[]):
        return records


    class HomegrownError(RuntimeError):
        pass


    def fail():
        raise HomegrownError("not a ReproError")


    def load():
        try:
            return open("x")
        except:
            pass


    def probe():
        try:
            return np.random.default_rng(0)
        except Exception:
            return time.time()


    from repro.common.rng import ensure_rng

    _STATE = []
    _STREAM = ensure_rng(13)


    def _install(scheduler):
        scheduler.schedule_at(0.0, _tick)
        scheduler.schedule_in(1.0, _tock)


    def _tick():
        _STATE.append(_STREAM.random())


    def _tock():
        _STATE.append(int(_STREAM.integers(0, 2)))


    def _enumerate_hosts():
        return list({"edge-0", "edge-1"})


    def _rank(rows):
        return sorted(rows, key=id)
    '''
).strip("\n")

EXPECTED = {
    "RL001": 37,  # time.time() in probe
    "RL101": 35,  # np.random.default_rng in probe
    "RL102": 10,  # simulate ignores seed
    "RL103": 43,  # _STREAM drawn from by both _tick and _tock
    "RL201": 29,  # bare except in load
    "RL202": 36,  # except Exception without re-raise in probe
    "RL203": 23,  # raise HomegrownError
    "RL301": 7,   # __all__ lists "vanished"
    "RL302": 18,  # class HomegrownError missing from __all__
    "RL401": 14,  # mutable default in collect
    "RL501": 5,   # common/ importing repro.ml
    "RL601": 60,  # list(...) over a set literal
    "RL602": 64,  # sorted(..., key=id)
    "RL603": 56,  # _STATE written from both _tick and _tock (last site)
}


def test_src_tree_is_clean():
    config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
    result = lint_paths([REPO_ROOT / "src" / "repro"], config)
    assert result.files_checked > 100
    assert result.findings == [], "\n".join(f.render() for f in result.findings)


def test_broken_fixture_triggers_every_rule():
    findings = lint_source(
        BROKEN_FIXTURE, filename="src/repro/common/broken_fixture.py"
    )
    located = {f.rule_id: f for f in findings}
    for rule_id, line in EXPECTED.items():
        assert rule_id in located, f"{rule_id} did not fire on the fixture"
        assert located[rule_id].line == line, (
            f"{rule_id} fired at line {located[rule_id].line}, expected {line}:"
            f" {located[rule_id].message}"
        )
    assert all(
        f.path == "src/repro/common/broken_fixture.py" for f in findings
    )


def test_fixture_covers_all_non_meta_rules():
    # Every registered rule except RL303 (mutually exclusive with RL301/
    # RL302, which need an __all__ present) must fire on the fixture.
    findings = lint_source(
        BROKEN_FIXTURE, filename="src/repro/common/broken_fixture.py"
    )
    fired = {f.rule_id for f in findings}
    registered = {rule.id for rule in all_rules()}
    assert registered - fired == {"RL303"}


def test_missing_all_rule_fires_separately():
    findings = lint_source(
        "def api():\n    return 1\n",
        filename="src/repro/common/no_all.py",
    )
    assert "RL303" in {f.rule_id for f in findings}

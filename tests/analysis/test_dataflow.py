"""RL601/RL602/RL603 dataflow rules and the RL103 stream-sharing rule."""

from __future__ import annotations

from repro.analysis import lint_source

FILE = "src/repro/sim/demo.py"


def _by_rule(source: str, rule_id: str, filename: str = FILE):
    return [f for f in lint_source(source, filename=filename) if f.rule_id == rule_id]


# ---------------------------------------------------------------- RL601


def test_set_literal_in_for_loop_fires():
    findings = _by_rule("for item in {1, 2, 3}:\n    print(item)\n", "RL601")
    assert len(findings) == 1


def test_listdir_into_list_fires():
    source = "import os\n\ndef scan(p):\n    return list(os.listdir(p))\n"
    assert _by_rule(source, "RL601")


def test_glob_iterated_fires():
    source = (
        "import glob\n\ndef scan(p):\n"
        "    return [x for x in glob.glob(p)]\n"
    )
    assert _by_rule(source, "RL601")


def test_tainted_variable_propagates():
    source = "def scan(xs):\n    names = {1, 2}\n    return tuple(names)\n"
    assert _by_rule(source, "RL601")


def test_reassignment_clears_taint():
    source = (
        "def scan(xs):\n"
        "    names = {1, 2}\n"
        "    names = [3, 4]\n"
        "    return tuple(names)\n"
    )
    assert _by_rule(source, "RL601") == []


def test_sorted_consumption_is_clean():
    for source in (
        "def scan(p):\n    return sorted({1, 2, 3})\n",
        "import os\n\ndef scan(p):\n    return sorted(os.listdir(p))\n",
        "def scan(xs):\n    return sum(x for x in {1, 2})\n",
        "def scan(xs):\n    return {x for x in {1, 2}}\n",
        "def scan(xs):\n    return len({1, 2})\n",
    ):
        assert _by_rule(source, "RL601") == [], source


def test_rl601_fix_wraps_in_sorted():
    findings = _by_rule("NAMES = list({1, 2})\n", "RL601")
    assert [f.line for f in findings] == [1]
    assert "wrap it in sorted(...)" in findings[0].message
    assert _by_rule("NAMES = list(sorted({1, 2}))\n", "RL601") == []


# ---------------------------------------------------------------- RL602


def test_sorted_key_id_fires():
    assert _by_rule("def rank(rows):\n    return sorted(rows, key=id)\n", "RL602")


def test_sort_method_key_id_fires():
    assert _by_rule("def rank(rows):\n    rows.sort(key=id)\n", "RL602")


def test_lambda_id_key_fires():
    source = "def rank(rows):\n    return min(rows, key=lambda r: id(r))\n"
    assert _by_rule(source, "RL602")


def test_stable_key_is_clean():
    source = "def rank(rows):\n    return sorted(rows, key=len)\n"
    assert _by_rule(source, "RL602") == []


# --------------------------------------------------------- RL603 / RL103

RACY = (
    "_EVENTS = []\n"
    "def _tick():\n"
    "    _EVENTS.append(1)\n"
    "def _tock():\n"
    "    _EVENTS.append(2)\n"
    "def _install(sched):\n"
    "    sched.schedule_at(0.0, _tick)\n"
    "    sched.schedule_at(0.0, _tock)\n"
)


def test_two_callbacks_writing_module_state_race():
    findings = _by_rule(RACY, "RL603")
    assert [f.line for f in findings] == [3, 5]
    assert all("_EVENTS" in f.message for f in findings)


def test_single_callback_is_not_a_race():
    source = RACY.replace("    sched.schedule_at(0.0, _tock)\n", "")
    assert _by_rule(source, "RL603") == []


def test_race_pragma_suppresses_at_write_site():
    source = RACY.replace(
        "    _EVENTS.append(1)",
        "    _EVENTS.append(1)  # reprolint: disable=RL603",
    )
    assert [f.line for f in _by_rule(source, "RL603")] == [5]


def test_shared_stream_between_callbacks_fires():
    source = (
        "from repro.common.rng import ensure_rng\n"
        "_STREAM = ensure_rng(3)\n"
        "def _a():\n"
        "    return _STREAM.random()\n"
        "def _b():\n"
        "    return _STREAM.random()\n"
        "def _install(sched):\n"
        "    sched.schedule_at(0.0, _a)\n"
        "    sched.schedule_in(1.0, _b)\n"
    )
    findings = _by_rule(source, "RL103")
    assert [f.line for f in findings] == [2]


def test_per_entity_streams_are_clean():
    source = (
        "from repro.common.rng import ensure_rng\n"
        "def _a(rng):\n"
        "    return rng.random()\n"
        "def _install(sched):\n"
        "    sched.schedule_at(0.0, _a)\n"
    )
    assert _by_rule(source, "RL103") == []

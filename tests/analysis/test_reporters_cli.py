"""Reporters, the reprolint CLI, and the autolearn lint subcommand."""

from __future__ import annotations

import json

from repro.analysis import render_json, render_text
from repro.analysis.cli import main as reprolint_main
from repro.analysis.runner import lint_paths
from repro.cli import main as autolearn_main

VIOLATION = "import time\nstamp = time.time()\n"
CLEAN = '__all__ = ["x"]\n\nx = 1\n'


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_render_text_lists_findings(tmp_path):
    path = _write(tmp_path, "bad.py", VIOLATION)
    result = lint_paths([path])
    report = render_text(result)
    assert f"{path}:2:" in report
    assert "RL001" in report and "[wall-clock]" in report
    assert "1 error(s)" in report


def test_render_text_clean(tmp_path):
    path = _write(tmp_path, "good.py", CLEAN)
    report = render_text(lint_paths([path]))
    assert "1 file(s) clean" in report


def test_render_json_round_trips(tmp_path):
    path = _write(tmp_path, "bad.py", VIOLATION)
    payload = json.loads(render_json(lint_paths([path])))
    assert payload["errors"] == 1
    assert payload["findings"][0]["rule"] == "RL001"
    assert payload["findings"][0]["line"] == 2


def test_syntax_error_reported_not_raised(tmp_path):
    path = _write(tmp_path, "broken.py", "def broken(:\n")
    result = lint_paths([path])
    assert [f.rule_id for f in result.findings] == ["RL000"]


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    good = _write(tmp_path, "good.py", CLEAN)
    assert reprolint_main([str(good)]) == 0
    assert reprolint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out


def test_cli_disable_flag(tmp_path):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert reprolint_main([str(bad), "--disable", "RL001"]) == 0


def test_cli_ignore_flag(tmp_path):
    # --ignore is the documented spelling; --disable stays as an alias.
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert reprolint_main([str(bad), "--ignore", "RL001"]) == 0
    assert reprolint_main([str(bad), "--ignore", "wall-clock"]) == 0


def test_cli_select_flag(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", VIOLATION + "def f(xs=[]):\n    return xs\n")
    assert reprolint_main([str(bad), "--select", "RL401"]) == 1
    out = capsys.readouterr().out
    assert "RL401" in out and "RL001" not in out
    assert reprolint_main([str(bad), "--select", "RL202"]) == 0


def test_cli_unknown_disable_rejected(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert reprolint_main([str(bad), "--disable", "RL00X"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_unknown_select_rejected(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert reprolint_main([str(bad), "--select", "RL00X"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_file_reported_not_raised(tmp_path):
    result = lint_paths([tmp_path / "ghost.py"])
    assert [f.rule_id for f in result.findings] == ["RL000"]
    assert "cannot read file" in result.findings[0].message


def test_cli_json_format(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert reprolint_main([str(bad), "--format", "json"]) == 1
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["errors"] == 1
    assert set(payload["findings"][0]) == {
        "col", "line", "message", "name", "path", "rule", "severity",
    }
    # Keys are emitted sorted so diffs of CI artifacts stay stable.
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_cli_list_rules(capsys):
    assert reprolint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RL001", "RL101", "RL201", "RL301", "RL401", "RL501"):
        assert rule_id in out


def test_cli_respects_pyproject(tmp_path):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    pyproject = _write(
        tmp_path, "pyproject.toml", "[tool.reprolint]\ndisable = [\"RL001\"]\n"
    )
    assert reprolint_main([str(bad), "--pyproject", str(pyproject)]) == 0
    # And it is discovered automatically from the linted path's parents.
    assert reprolint_main([str(bad)]) == 0


def test_autolearn_lint_subcommand(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", VIOLATION)
    good = _write(tmp_path, "good.py", CLEAN)
    assert autolearn_main(["lint", str(good)]) == 0
    assert autolearn_main(["lint", str(bad)]) == 1
    assert "RL001" in capsys.readouterr().out

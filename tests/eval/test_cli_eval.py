"""``autolearn eval`` CLI behavior: listing, scoring, diffing, exit codes."""

from __future__ import annotations

from repro.cli import main
from repro.eval.library import scenario_names
from repro.eval.scorecard import ScoreCard

# A fast cell to keep CLI runs cheap (4s of simulated serving).
CELL = "matrix-v016-nofault-lan"


def test_list_names_library_and_matrix(capsys):
    assert main(["eval", "--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert listed == list(scenario_names(matrix=True))
    assert "serve-load" in listed
    assert CELL in listed


def test_update_then_match_then_diff(tmp_path, capsys):
    golden = tmp_path / "golden"
    args = ["eval", "--scenario", CELL, "--golden", str(golden)]

    # No golden yet: the run is NEW and fails the pin.
    assert main(args) == 1
    assert "NEW" in capsys.readouterr().out

    # Write the golden, then the same run matches byte for byte.
    assert main(args + ["--update-goldens"]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert "ok" in capsys.readouterr().out

    # Tamper with the golden: the diff is reported and the exit is 1.
    path = golden / f"{CELL}-seed0.json"
    path.write_text(path.read_text().replace('"completed"', '"completedX"'))
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "DIFF" in out
    assert "completedX" in out


def test_out_dir_receives_scorecards(tmp_path, capsys):
    out = tmp_path / "cards"
    code = main([
        "eval", "--scenario", CELL, "--out", str(out), "--no-golden",
    ])
    capsys.readouterr()
    assert code == 0
    cards = sorted(p.name for p in out.iterdir())
    assert cards == [f"{CELL}-seed0.json"]


def test_multiple_seeds(tmp_path, capsys):
    out = tmp_path / "cards"
    code = main([
        "eval", "--scenario", CELL, "--seed", "0", "--seed", "1",
        "--out", str(out), "--no-golden",
    ])
    capsys.readouterr()
    assert code == 0
    assert {p.name for p in out.iterdir()} == {
        f"{CELL}-seed0.json", f"{CELL}-seed1.json"
    }


def test_unknown_scenario_exits_2(capsys):
    assert main(["eval", "--scenario", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown eval scenario" in captured.err


def _diff_lines(out: str, sign: str) -> list[str]:
    """The diff body lines printed with ``sign`` (headers excluded)."""
    return [
        line.strip()[1:].strip()
        for line in out.splitlines()
        if line.strip().startswith(sign) and not line.strip().startswith(sign * 3)
    ]


def test_diff_aligns_around_an_inserted_group(tmp_path, capsys):
    golden = tmp_path / "golden"
    args = ["eval", "--scenario", CELL, "--golden", str(golden)]
    assert main(args + ["--update-goldens"]) == 0
    capsys.readouterr()

    # A golden holding one extra group: the diff shows exactly that group
    # as removed and nothing as added.
    path = golden / f"{CELL}-seed0.json"
    lines = path.read_text().splitlines(keepends=True)
    extra = ['    "extra": {\n', '      "a": 1,\n', '      "b": 2\n', "    },\n"]
    at = lines.index('  "metrics": {\n') + 1
    path.write_text("".join(lines[:at] + extra + lines[at:]))
    assert main(args) == 1
    out = capsys.readouterr().out
    assert _diff_lines(out, "-") == [line.strip() for line in extra]
    assert _diff_lines(out, "+") == []


def test_scorecard_diff_sees_a_change_to_a_repeated_line():
    # "x": 1 occurs in both groups; changing it in one must still show.
    card = ScoreCard("s", "serve", 0, "d", {"a": {"x": 1}, "b": {"x": 1}})
    golden = ScoreCard("s", "serve", 0, "d", {"a": {"x": 1}, "b": {"x": 2}})
    diff = card.diff(golden.to_json())
    assert '-      "x": 2' in diff
    assert '+      "x": 1' in diff
    assert card.diff(card.to_json()) == []

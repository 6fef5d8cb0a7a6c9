"""The autolearn CLI."""

import hashlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("tracks", "collect", "clean", "train", "evaluate",
                        "pipeline"):
            args = {
                "tracks": [],
                "collect": ["/tmp/x"],
                "clean": ["/tmp/x"],
                "train": ["/tmp/x", "/tmp/m.npz"],
                "evaluate": ["/tmp/m.npz"],
                "pipeline": ["digital"],
            }[command]
            parsed = parser.parse_args([command, *args])
            assert parsed.command == command


class TestCommands:
    def test_tracks(self, capsys):
        assert main(["tracks"]) == 0
        out = capsys.readouterr().out
        assert "default-tape-oval" in out
        assert "waveshare" in out

    def test_collect_clean_train_evaluate(self, tmp_path, capsys):
        tub = str(tmp_path / "tub")
        model = str(tmp_path / "m.npz")
        assert main([
            "collect", tub, "--records", "300", "--seed", "3",
            "--camera", "40x56", "--skill", "0.6",
        ]) == 0
        assert "collected 300 records" in capsys.readouterr().out

        assert main(["clean", tub, "--dry-run"]) == 0
        assert main(["clean", tub]) == 0
        out = capsys.readouterr().out
        assert "marked" in out

        assert main([
            "train", tub, model, "--model", "linear", "--epochs", "2",
            "--scale", "0.25",
        ]) == 0
        assert "val loss" in capsys.readouterr().out

        assert main(["evaluate", model, "--ticks", "100"]) == 0
        out = capsys.readouterr().out
        assert "mean speed" in out
        assert "laps" in out


def _sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


#: ``serve --vehicles 16 --duration 1 --seed 3``
SERVE_VEHICLES = """\
serve summary
  config    router=least-outstanding batch=adaptive replicas=4
  duration  1.000s simulated (1.010s to drain)
  offered   160
  completed 160 (goodput 158.44 Hz, throughput 158.44 Hz)
  losses    dropped=0 shed=0 rejected=0 expired=0
  latency   p50=79.433ms p95=99.887ms p99=99.887ms max=99.887ms mean=80.190ms
  deadlines miss_rate=0.0000 met=160
  batching  batches=40 mean_size=4.00
  scaling   ups=0 downs=0
  vehicles  stale_ticks=160
"""

#: ``serve --rate 200 --autoscale --seed 3``
SERVE_RATE_AUTOSCALE = """\
serve summary
  config    router=least-outstanding batch=adaptive replicas=4
  duration  10.000s simulated (10.062s to drain)
  offered   1985
  completed 1985 (goodput 196.68 Hz, throughput 197.28 Hz)
  losses    dropped=0 shed=0 rejected=0 expired=0
  latency   p50=89.125ms p95=100.000ms p99=100.000ms max=100.378ms mean=75.449ms
  deadlines miss_rate=0.0030 met=1979
  batching  batches=385 mean_size=5.16
  scaling   ups=0 downs=0
"""

#: sha256 of ``fleet --rounds 2 --vehicles 4 --stage-vehicles 4
#: --crash-canary-round 2 --json --seed 3`` (4395 bytes of JSON).
FLEET_JSON_SHA256 = (
    "ac536bc95d8bea99ecf0afe357b6214ad2007f0b779ec11c99877bdc9fbc46ca"
)

#: ``trace serve-load --seed 0``: its summary, then the files it writes.
TRACE_SERVE_LOAD_SUMMARY = """\
serve summary
  config    router=least-outstanding batch=adaptive replicas=2
  duration  1.000s simulated (1.084s to drain)
  offered   43
  completed 43 (goodput 39.66 Hz, throughput 39.66 Hz)
  losses    dropped=0 shed=0 rejected=0 expired=0
  latency   p50=74.989ms p95=99.601ms p99=99.601ms max=99.601ms mean=68.223ms
  deadlines miss_rate=0.0000 met=43
  batching  batches=16 mean_size=2.69
  scaling   ups=0 downs=0
"""
TRACE_SERVE_LOAD_FILES = {
    "metrics.json":
        "e5cf5483ce6db8b55c7ea804fd382500b1abb225e4e4a053ba0f37fa33a5744f",
    "trace.json":
        "54429e0771621d17e85b4fb1d12ad24da4481f307b0283dd21956dc8554d9669",
    "trace.txt":
        "8ed97518af40913fa5f12ab56c5856b20ed5ff00bd2ecd07d8067799bd57c40d",
}


class TestPinnedOutputs:
    """Scenario CLIs print the same bytes however they are wired."""

    def test_serve_vehicles(self, capsys):
        argv = ["serve", "--vehicles", "16", "--duration", "1", "--seed", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == SERVE_VEHICLES

    def test_serve_rate_autoscale(self, capsys):
        assert main(["serve", "--rate", "200", "--autoscale", "--seed", "3"]) == 0
        assert capsys.readouterr().out == SERVE_RATE_AUTOSCALE

    def test_fleet_json(self, capsys):
        assert main([
            "fleet", "--rounds", "2", "--vehicles", "4", "--stage-vehicles",
            "4", "--crash-canary-round", "2", "--json", "--seed", "3",
        ]) == 0
        assert _sha256(capsys.readouterr().out) == FLEET_JSON_SHA256

    def test_trace_serve_load(self, tmp_path, capsys):
        out = tmp_path / "trace"
        assert main(["trace", "serve-load", "--seed", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            TRACE_SERVE_LOAD_SUMMARY + f"spans=61 events=0 -> {out}\n"
        )
        for name, digest in TRACE_SERVE_LOAD_FILES.items():
            assert _sha256((out / name).read_bytes()) == digest, name


class TestBadInput:
    """Bad outside input prints one ``error:`` line on stderr, exits 2."""

    def assert_error(self, capsys, argv) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        return lines[0]

    def test_malformed_camera(self, tmp_path, capsys):
        tub = tmp_path / "tub"
        line = self.assert_error(
            capsys, ["collect", str(tub), "--camera", "48by64"]
        )
        assert "48by64" in line
        assert not tub.exists()

    def test_unknown_track_to_collect(self, tmp_path, capsys):
        tub = tmp_path / "tub"
        line = self.assert_error(
            capsys, ["collect", str(tub), "--track", "nosuch"]
        )
        assert "--track" in line and "nosuch" in line
        assert "default-tape-oval" in line
        assert not tub.exists()

    def test_unknown_track_is_checked_before_the_model_loads(
        self, tmp_path, capsys
    ):
        # The model file does not exist either: the track is looked up
        # first, so the error names the track, not the file.
        missing = tmp_path / "absent.npz"
        line = self.assert_error(
            capsys, ["evaluate", str(missing), "--track", "nosuch"]
        )
        assert "--track" in line and "nosuch" in line

    def test_unknown_gpu(self, capsys):
        line = self.assert_error(capsys, ["serve", "--gpu", "H9000"])
        assert "H9000" in line

    @pytest.mark.parametrize("content", [
        "not json",
        '{"kind": "replica-crash", "target": "replica:any", "at_s": 1}',
        '[{"kind": "replica-crash", "target": "replica:any"}]',
        '[{"kind": "replica-crash", "target": "replica:any", "at": 1}]',
        '[{"kind": "replica-crash", "target": "replica:any", "at_s": "x"}]',
        '[{"kind": "replica-crash", "target": "replica:any", "at_s": NaN}]',
        '[{"kind": "replica-hang", "target": "replica:any", "at_s": 1,'
        ' "duration_s": Infinity}]',
        '[{"kind": "slow-node", "target": "replica-*", "at_s": 1,'
        ' "duration_s": 1, "factor": NaN}]',
    ], ids=[
        "not-json", "not-a-list", "no-start", "misspelled-key", "not-a-number",
        "nan-start", "infinite-duration", "nan-factor",
    ])
    def test_malformed_faults_file(self, tmp_path, capsys, content):
        path = tmp_path / "faults.json"
        path.write_text(content)
        self.assert_error(capsys, ["serve", "--faults", str(path)])

    def test_missing_faults_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        line = self.assert_error(capsys, ["chaos", "--faults", str(missing)])
        assert "absent.json" in line

    @pytest.mark.parametrize("argv", [
        ["--rate", "inf", "--duration", "1"],
        ["--rate", "nan", "--duration", "1"],
        ["--rate", "50", "--deadline-ms", "inf", "--duration", "1"],
        ["--vehicles", "4", "--deadline-ms", "nan", "--duration", "1"],
        ["--vehicles", "4", "--duration", "inf"],
        ["--vehicles", "4", "--duration", "nan"],
    ], ids=[
        "infinite-rate", "nan-rate", "infinite-deadline", "nan-deadline",
        "infinite-duration", "nan-duration",
    ])
    def test_non_finite_serve_numbers(self, capsys, argv):
        # An infinite rate or duration never returned, a NaN duration
        # printed a summary of zeros, and a NaN rate ran the vehicle
        # fleet instead of the Poisson workload it asked for.
        line = self.assert_error(capsys, ["serve", *argv])
        assert "finite" in line

    def test_spec_the_runner_rejects(self, capsys):
        line = self.assert_error(capsys, ["serve", "--replicas", "0"])
        assert "replica" in line

    def test_unknown_trace_scenario(self, tmp_path, capsys):
        out = tmp_path / "trace"
        line = self.assert_error(
            capsys, ["trace", "no-such-scenario", "--out", str(out)]
        )
        assert "no-such-scenario" in line
        assert not out.exists()

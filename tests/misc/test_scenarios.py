"""Library scenarios through :func:`repro.eval.runner.run_scenario`.

The golden-trace suite covers the scenarios end to end; these tests pin
the front door's own contract: every library name resolves to a
declarative spec that round-trips, unknown names raise, the requested
seed reaches the scenario's seeded components, and the scratch work dir
never leaks — even when the scenario body raises.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.common.errors import ConfigurationError
from repro.eval.library import scenario_names, scenario_spec
from repro.eval.runner import run_scenario
from repro.eval.spec import ScenarioSpec


def trace_scenario_spec(name: str) -> ScenarioSpec:
    """The spec ``autolearn trace NAME`` looks up."""
    return scenario_spec(name)


def run_trace_scenario(name: str, seed=0, work_dir=None):
    """Run a library scenario by name, as ``autolearn trace NAME`` does."""
    return run_scenario(trace_scenario_spec(name), seed=seed, work_dir=work_dir)


class TestSpecs:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_has_a_round_tripping_spec(self, name):
        spec = scenario_spec(name)
        assert spec.name == name
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_scenario_names_are_stable(self):
        assert scenario_names() == (
            "pipeline-quickstart",
            "serve-load",
            "chaos-crash",
            "fleet-canary-chaos",
            "drive-mot",
        )

    @pytest.mark.parametrize("func", [run_trace_scenario, trace_scenario_spec])
    def test_unknown_name_raises_configuration_error(self, func):
        with pytest.raises(ConfigurationError, match="unknown eval scenario"):
            func("no-such-scenario")


class _Abort(Exception):
    """Raised by capture stubs to stop the run after the seed is seen."""


class TestSeedPlumbing:
    """The seed argument must reach every seeded component unchanged."""

    SEED = 7741

    def _capture_seed(self, monkeypatch, module, attr, captured):
        def stub(*args, **kwargs):
            captured[attr] = kwargs.get("seed")
            raise _Abort

        monkeypatch.setattr(module, attr, stub)

    def test_serve_load_service_seed(self, monkeypatch):
        import repro.serve.service as mod

        captured = {}
        self._capture_seed(monkeypatch, mod, "InferenceService", captured)
        with pytest.raises(_Abort):
            run_trace_scenario("serve-load", seed=self.SEED)
        assert captured["InferenceService"] == self.SEED

    def test_serve_load_workload_seed(self, monkeypatch):
        import repro.serve.workload as mod

        captured = {}
        self._capture_seed(monkeypatch, mod, "PoissonWorkload", captured)
        with pytest.raises(_Abort):
            run_trace_scenario("serve-load", seed=self.SEED)
        assert captured["PoissonWorkload"] == self.SEED

    def test_chaos_crash_run_seed(self, monkeypatch):
        import repro.faults.injector as mod

        captured = {}
        self._capture_seed(monkeypatch, mod, "FaultInjector", captured)
        with pytest.raises(_Abort):
            run_trace_scenario("chaos-crash", seed=self.SEED)
        assert captured["FaultInjector"] == self.SEED

    def test_fleet_config_seed(self, monkeypatch):
        import repro.fleet as mod

        captured = {}

        def stub(config, **kwargs):
            captured["FleetConfig"] = config.seed
            raise _Abort

        monkeypatch.setattr(mod, "FleetLoop", stub)
        with pytest.raises(_Abort):
            run_trace_scenario("fleet-canary-chaos", seed=self.SEED)
        assert captured["FleetConfig"] == self.SEED

    def test_pipeline_seed(self, monkeypatch, tmp_path):
        import repro.core.pipeline as mod

        captured = {}
        self._capture_seed(monkeypatch, mod, "AutoLearnPipeline", captured)
        with pytest.raises(_Abort):
            run_trace_scenario("pipeline-quickstart", seed=self.SEED, work_dir=tmp_path)
        assert captured["AutoLearnPipeline"] == self.SEED

    def test_seed_is_coerced_to_int(self, monkeypatch):
        import repro.faults.injector as mod

        captured = {}
        self._capture_seed(monkeypatch, mod, "FaultInjector", captured)
        with pytest.raises(_Abort):
            run_trace_scenario("chaos-crash", seed="11")
        assert captured["FaultInjector"] == 11


class TestWorkDirCleanup:
    def test_temp_work_dir_removed_on_scenario_exception(
        self, monkeypatch, tmp_path
    ):
        """The implicit temp work dir must not leak when the scenario
        body raises mid-run."""
        import repro.core.pipeline as mod

        def explode(*args, **kwargs):
            raise RuntimeError("scenario body failure")

        monkeypatch.setattr(mod, "AutoLearnPipeline", explode)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(RuntimeError, match="scenario body failure"):
            run_trace_scenario("pipeline-quickstart", seed=0)
        assert list(tmp_path.iterdir()) == []

    def test_explicit_work_dir_is_kept(self, tmp_path):
        run = run_trace_scenario("pipeline-quickstart", seed=0, work_dir=tmp_path)
        assert run.summary.startswith("pipeline-quickstart")
        assert list(tmp_path.iterdir()), "work dir should hold artifacts"

"""The benchmark's workloads: scenario specs built from the eval library.

Each workload is a base spec from :mod:`repro.eval.library` plus
override maps, composed with ``ScenarioSpec.with_overrides`` under the
workload's own name.  The program receives only these generated specs
and the seed; nothing under ``src/`` is specific to the benchmark.

Why four: with fewer, one of the shard codec, ML training, track
geometry or serving does under 5% of every workload's work, and a
layer's share bounds what speeding it up can save.
"""

from __future__ import annotations

#: ``benchmarks/test_fleet_scale.py``'s 1k-vehicle fleet config.
FLEET_1K = {
    "n_vehicles": 1000,
    "flushes_per_round": 2,
    "records_per_flush": 4,
    "frame_hw": [8, 12],
    "epochs": 4,
    "min_fresh_records": 64,
    "eval_records": 48,
    "stage_vehicles": 4,
    "stage_duration_s": 0.6,
    "gates.min_completions": 10,
    "canary_fraction": 0.35,
    "rounds": 3,
    "canary_fault_plans": [],
}

#: name -> (library base spec, override maps, why it is in the benchmark)
WORKLOADS: dict[str, tuple[str, tuple[dict, ...], str]] = {
    "fleet-ingest": (
        "fleet-canary-chaos",
        (FLEET_1K,),
        "12k tiny-shard encodes and 6k decodes: the shard codec is most "
        "of the time and Trainer.fit about 2%",
    ),
    "fleet-train": (
        "fleet-canary-chaos",
        (
            FLEET_1K,
            {
                "n_vehicles": 16,
                "records_per_flush": 32,
                "frame_hw": [24, 32],
                "stage_vehicles": 8,
                "stage_duration_s": 1.0,
            },
        ),
        "96 large shards: Trainer.fit is most of the time and the codec "
        "a few percent, the fleet layer used the other way",
    ),
    "drive-oval": (
        "drive-mot",
        ({"n_vehicles": 8, "ticks": 600},),
        "8 cars x 600 ticks of closed-loop driving: track geometry and "
        "repro.sim dominate, with no shards and no ML",
    ),
    "serve-crash": (
        "matrix-base",
        (
            {
                "workload.n_vehicles": 128,
                "service.replicas": 8,
                "duration_s": 60,
                "net": "degraded",
                "faults": [
                    {
                        "kind": "replica-crash",
                        "target": "replica:any",
                        "at_s": 20.0,
                    },
                ],
            },
        ),
        "36k requests over 8 replicas with a crash: serving, the "
        "scheduler and obs records with no numpy numerics",
    ),
}


def build_spec(name: str):
    """The :class:`~repro.eval.spec.ScenarioSpec` of workload ``name``."""
    from repro.eval.library import BASE_SPECS, MATRIX_BASE

    base_name, overrides, _why = WORKLOADS[name]
    base = MATRIX_BASE if base_name == MATRIX_BASE.name else BASE_SPECS[base_name]
    return base.with_overrides(*overrides, name=name)

"""BENCH — continuum-loop scale: fleet size vs loop throughput.

Runs the full continuous-learning loop (collect -> ingest -> train ->
shadow -> canary -> promote) at 100 and 1000 data-plane vehicles and
reports wall-clock rounds/sec plus the simulated promotion latency
(candidate published -> stable tag moved).  The training set is capped
by ``max_train_shards``, so ingest volume grows with the fleet while
the trainer stays fixed — the loop must scale in the data plane, not
the model.

Acceptance: the loop promotes at both scales, and the 10x fleet costs
under 5x wall-clock per round.  The per-vehicle work is sampling each
flush's records and moving its shard through the store (one encode per
flush, one decode at ingest); training stays the same size.
"""

from repro.fleet import FleetConfig, FleetLoop
from repro.fleet.gates import GateThresholds

from conftest import emit, emit_json

ROUNDS = 3
FLEET_SIZES = (100, 1000)


def run_fleet(n_vehicles):
    config = FleetConfig(
        n_vehicles=n_vehicles,
        flushes_per_round=2,
        records_per_flush=4,
        frame_hw=(8, 12),
        epochs=4,
        min_fresh_records=64,
        eval_records=48,
        stage_vehicles=4,
        stage_duration_s=0.6,
        gates=GateThresholds(min_completions=10),
        canary_fraction=0.35,
        rounds=ROUNDS,
        seed=0,
    )
    return FleetLoop(config).run()


def sweep():
    import time

    points = {}
    for n_vehicles in FLEET_SIZES:
        start = time.perf_counter()
        summary = run_fleet(n_vehicles)
        points[n_vehicles] = (summary, time.perf_counter() - start)
    return points


def test_fleet_scale(benchmark):
    points = benchmark.pedantic(sweep, rounds=1, iterations=1)

    header = (
        f"{'vehicles':>9s} {'rounds/s':>9s} {'records':>9s} "
        f"{'promoted':>9s} {'prom-lat(s)':>12s} {'stable':>7s}"
    )
    lines = [header]
    records = {}
    for n_vehicles, (summary, wall_s) in sorted(points.items()):
        mean_latency = summary.mean_promotion_latency_s
        rounds_per_s = ROUNDS / wall_s
        lines.append(
            f"{n_vehicles:9d} {rounds_per_s:9.3f} "
            f"{summary.records_flushed:9d} {summary.promotions:9d} "
            f"{mean_latency:12.3f} {summary.final_stable:7d}"
        )
        records[str(n_vehicles)] = {
            "wall_s": round(wall_s, 3),
            "rounds_per_s": round(rounds_per_s, 4),
            "records_flushed": summary.records_flushed,
            "records_ingested": summary.records_ingested,
            "promotions": summary.promotions,
            "mean_promotion_latency_s": round(mean_latency, 4),
            "final_stable": summary.final_stable,
        }

    small_wall = points[FLEET_SIZES[0]][1]
    big_wall = points[FLEET_SIZES[-1]][1]
    scaling = big_wall / small_wall
    lines.append("")
    lines.append(
        f"{FLEET_SIZES[-1] // FLEET_SIZES[0]}x fleet costs "
        f"{scaling:.1f}x wall-clock"
    )
    emit("BENCH_fleet", "\n".join(lines))
    emit_json(
        "BENCH_fleet",
        {"rounds": ROUNDS, "fleets": records, "wall_scaling": round(scaling, 3)},
    )

    # Acceptance: both scales complete every round and end promoted past
    # the bootstrap checkpoint; the capped trainer keeps the 10x fleet
    # under 5x wall-clock.
    for n_vehicles, (summary, _) in points.items():
        assert len(summary.rounds) == ROUNDS, n_vehicles
        assert summary.final_stable >= 2, n_vehicles
    assert scaling < 5.0

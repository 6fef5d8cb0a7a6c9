"""Race day: the steer-only competition with digital-twin scouting.

The paper's race configuration ("setting the throttle as constant,
useful if the car is used in races with a pilot that will steer but
does not control throttle", §3.3) plus two extensions: the real-time
speed governor (the Fowler poster) and a digital-twin pre-check
(§3.4) that predicts how each entrant will behave on the slightly
heavier 'real' car before the physical heat.

Run:
    python examples/race_day.py [--records 1200] [--epochs 6]
"""

from __future__ import annotations

import argparse
import tempfile

from repro.core.collection import collect_via_simulator
from repro.core.drivers import PurePursuitDriver
from repro.core.evaluation import evaluate_model
from repro.data.datasets import TubDataset
from repro.data.tubclean import TubCleaner
from repro.inference import SpeedGovernor
from repro.ml import EarlyStopping, Trainer, create_model
from repro.sim import CameraParams, DrivingSession, default_tape_oval
from repro.twin import run_twin_comparison

H, W = 48, 64


def train_entrant(name, tubs, seed):
    model = create_model(name, input_shape=(H, W, 3), scale=0.5, seed=seed)
    dataset = TubDataset(tubs)
    split = dataset.split_for(model, rng=seed, flip_augment=True)
    Trainer(batch_size=64, epochs=6, early_stopping=EarlyStopping(patience=3),
            shuffle_seed=seed).fit(model, split)
    return model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=1200)
    parser.add_argument("--entrants", nargs="+",
                        default=["linear", "categorical", "inferred"])
    parser.add_argument("--race-throttle", type=float, default=0.45)
    args = parser.parse_args()
    work = tempfile.mkdtemp(prefix="autolearn-race-")
    track = default_tape_oval()
    camera = CameraParams(height=H, width=W)

    print("[1/3] shared practice data ...")
    report = collect_via_simulator(
        track, f"{work}/tub", n_records=args.records, skill=0.9, seed=1,
        camera_hw=(H, W),
    )
    TubCleaner(report.tub).clean(half_width=track.half_width)

    print("[2/3] digital-twin scouting (severity 1.0 'real' car)")
    print(f"{'entrant':14s} {'sim speed':>10s} {'real speed':>11s} {'twin gap':>9s}")
    models = {}
    for name in args.entrants:
        model = train_entrant(name, [report.tub], seed=3)
        models[name] = model
        twin = run_twin_comparison(
            model, track, ticks=500, severity=1.0, seed=7, camera=camera
        )
        print(f"{name:14s} {twin.sim_mean_speed:10.2f} "
              f"{twin.real_mean_speed:11.2f} {twin.twin_gap:9.3f}")

    print(f"\n[3/3] the race: steer-only, constant throttle "
          f"{args.race_throttle} ('local_angle' mode)")
    print(f"{'entrant':14s} {'laps':>5s} {'errors':>7s} {'mean lap(s)':>12s} "
          f"{'speed':>7s}")
    results = []
    for name, model in models.items():
        heat = evaluate_model(
            model, track, ticks=900, seed=42, camera=camera,
            mode="local_angle", user_throttle=args.race_throttle,
        )
        results.append((name, heat))
        lap = f"{heat.mean_lap_time:12.2f}" if heat.laps else "           -"
        print(f"{name:14s} {heat.laps:5d} {heat.errors:7d} {lap} "
              f"{heat.mean_speed:7.2f}")

    winner = max(results, key=lambda r: (r[1].laps, -r[1].errors))
    print(f"\nwinner: {winner[0]} "
          f"({winner[1].laps} laps, {winner[1].errors} errors)")

    # Bonus heat: the governor holds a perfectly steady pace.
    session = DrivingSession(track, render=False, seed=43)
    driver = PurePursuitDriver(session)

    class Steer:
        def run(self, image):
            return driver(image, 0.0, 0.0)

    governor = SpeedGovernor(Steer(), target_speed=1.2, dt=session.dt)
    obs = session.reset()
    for _ in range(1500):
        angle, throttle = governor.run(obs.image, obs.speed)
        obs = session.step(angle, throttle)
    stats = session.stats
    print(f"\nconsistency demo (speed governor @1.2 m/s): "
          f"{stats.laps_completed} laps, lap std {stats.lap_time_std:.3f} s")


if __name__ == "__main__":
    main()

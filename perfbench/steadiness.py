"""Steadiness report: one commit measured as two interleaved sets of runs.

    python3 perfbench/steadiness.py [--seed 1]

Each set runs every workload of BENCHMARK.json ``RUNS_PER_SET`` times
with the one seed (by default the held-out seed 1), untraced and for
the declared ``run_seconds``, through ``run.py``.  Runs alternate
between the sets and rotate through the workloads, so slow spells of a
shared host fall on both sets alike.  Every run is listed as it ends.
Then, per workload and end-to-end metric, each set's median and
quartiles and its spread (quartile distance over median) are set
against the metric's bound in BENCHMARK.json, and so is the difference
of the second set's median from the first, in either direction.
``error_rate`` is ``failed / attempted`` over a set.  The report ends
``steady`` only when every spread and difference is within its bound
and no repetition failed.  The host-seconds ``wall_s`` that each run
prints beside ``wall_ref_s`` is listed too, with its spreads, to show
what the speed correction of ``speed.py`` removes; it has no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Runs of every workload in each of the two sets.
RUNS_PER_SET = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(command)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["run_s"] = elapsed
    result["wall_s"] = next(
        float(line.split()[1]) for line in lines if line.split()[:1] == ["wall_s"]
    )
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs: dict[tuple[str, str], list[dict]] = {}
    for index in range(RUNS_PER_SET):
        shift = index % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            for label in ("AB" if index % 2 == 0 else "BA"):
                result = one_run(workload, seed, bench["run_seconds"])
                runs.setdefault((label, workload), []).append(result)
                values = " ".join(
                    f"{name}={m['value']:.6f}" for name, m in result["metrics"].items()
                ) + f" wall_s={result['wall_s']:.6f}"
                print(
                    f"run set={label} workload={workload} seed={seed} "
                    f"run_s={result['run_s']:.1f} correct={result['correct']} "
                    f"failed={result['failed']}/{result['attempted']} {values}",
                    flush=True,
                )

    ok = True
    print(f"\n{'workload':13s} {'metric':12s} {'set':3s} {'median':>11s} "
          f"{'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in workloads:
        for name, bound in bounds.items():
            medians = []
            for label in "AB":
                values = [r["metrics"][name]["value"] for r in runs[(label, workload)]]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                medians.append(median)
                ok &= spread <= bound
                print(
                    f"{workload:13s} {name:12s} {label:3s} {median:11.6f} "
                    f"{q1:11.6f} {q3:11.6f} {spread:7.2%} {bound:6.0%}  "
                    f"{'ok' if spread <= bound else 'SPREAD'}"
                    f"{'' if spread <= bound / 3 else ' (above a third)'}"
                )
            diff = medians[1] / medians[0] - 1.0
            ok &= abs(diff) <= bound
            print(f"{workload:13s} {name:12s} B/A {diff:+.2%} of A's median, "
                  f"bound {bound:.0%}  {'ok' if abs(diff) <= bound else 'DIFFERS'}")
        for label in "AB":
            values = [r["wall_s"] for r in runs[(label, workload)]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:13s} {'wall_s':12s} {label:3s} {median:11.6f} "
                  f"{q1:11.6f} {q3:11.6f} {(q3 - q1) / median:7.2%}  host seconds")
        for label in "AB":
            attempted = sum(r["attempted"] for r in runs[(label, workload)])
            failed = sum(r["failed"] for r in runs[(label, workload)])
            print(f"{workload:13s} error_rate   {label:3s} {failed / attempted:.6f} "
                  f"({failed} of {attempted} repetitions)")
            ok &= failed == 0
    print(f"seed {seed}: {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

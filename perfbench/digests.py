"""Record the sha256 of every workload's canonical scorecard per seed.

    python3 perfbench/digests.py

Rewrites ``perfbench/digests.json`` for every workload and every seed
in ``SEEDS``, which ``run.py`` checks each repetition against.  Rerun it
only in a change that means to move a simulated statistic, and say so
in that change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from run import BLAS_THREAD_VARS, HERE, SRC

#: Seeds with a recorded scorecard: the held-out seed 1 and the seeds
#: of ten-seed spread checks among them.
SEEDS = range(16)


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from repro.eval.runner import run_scenario
    from repro.eval.scorecard import Evaluator
    from workloads import WORKLOADS, build_spec

    digests = {}
    for name in WORKLOADS:
        spec = build_spec(name)
        digests[name] = {}
        for seed in SEEDS:
            card = Evaluator().evaluate(run_scenario(spec, seed)).to_json()
            digests[name][str(seed)] = hashlib.sha256(card.encode()).hexdigest()
            print(name, seed, digests[name][str(seed)], flush=True)
    path = HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

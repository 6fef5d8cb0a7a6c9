"""One cold start: import the eval entry points, build a workload's spec.

Run as ``python3 perfbench/coldstart.py <workload>`` with ``src`` on
``PYTHONPATH``.  ``run.py`` times whole runs of this script for
``setup_s`` and reads the JSON line it prints for the setup layer.
"""

import json
import sys
import time

start = time.perf_counter()
import repro.eval.runner  # noqa: E402,F401
import repro.eval.scorecard  # noqa: E402,F401

import_s = time.perf_counter() - start
modules = len(sys.modules)

from workloads import build_spec  # noqa: E402

build_spec(sys.argv[1])
print(json.dumps({"import_s": import_s, "modules": modules}))

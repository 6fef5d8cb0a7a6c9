"""Every call site and report field the benchmark's traced run uses exists.

``perfbench/layers.py`` replaces each ``SITES`` entry's attribute in
place, where callers look it up, and its ``TALLIES`` read fields of the
reports those calls return.  A refactor that moves or renames one (for
example a codec import in the fleet data plane, or a field of
``CollectReport``) would break the traced run without failing any
program test, so this test resolves every entry the way
``Recorder.install`` does, and every field a tally reads.  It only
reads the benchmark.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"

#: (tally, module, report class, field the tally reads off the report)
TALLY_FIELDS = (
    ("fleet.collect", "repro.fleet.dataplane", "CollectReport", "flushed_shards"),
    ("ml.fit", "repro.ml.training", "History", "samples_seen"),
    ("eval.evaluate", "repro.eval.runner", "ScenarioRun", "tracer"),
    ("eval.evaluate", "repro.eval.runner", "ScenarioRun", "metrics"),
)


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tally, module_name, class_name, field", TALLY_FIELDS)
def test_tally_field_is_a_field_of_its_report(tally, module_name, class_name, field):
    assert tally in load_layers().TALLIES
    report = getattr(importlib.import_module(module_name), class_name)
    assert field in {each.name for each in dataclasses.fields(report)}


@pytest.mark.parametrize("name, module_name, path", load_layers().SITES)
def test_site_resolves_to_an_attribute_of_its_module(name, module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # Recorder.install swaps vars(owner)[attr], so an inherited attribute
    # is not enough: it must be defined on the owner itself.
    assert attr in vars(owner), f"{name}: {module_name}.{path} is not defined there"
    assert callable(vars(owner)[attr])

"""Every call site the benchmark's traced run wraps exists in the program.

``perfbench/layers.py`` replaces each ``SITES`` entry's attribute in
place, where callers look it up.  A refactor that moves or renames one
(for example a codec import in the fleet data plane) would break the
traced run without failing any program test, so this test resolves
every entry the way ``Recorder.install`` does.  It only reads the
benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def load_sites() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


@pytest.mark.parametrize("name, module_name, path", load_sites())
def test_site_resolves_to_an_attribute_of_its_module(name, module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # Recorder.install swaps vars(owner)[attr], so an inherited attribute
    # is not enough: it must be defined on the owner itself.
    assert attr in vars(owner), f"{name}: {module_name}.{path} is not defined there"
    assert callable(vars(owner)[attr])

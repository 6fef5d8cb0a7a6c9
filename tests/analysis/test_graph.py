"""The whole-program layer: shards, the class hierarchy, the call graph."""

from __future__ import annotations

import ast

from repro.analysis.graph import (
    CallRef,
    ClassHierarchy,
    ModuleShard,
    ProjectGraph,
    extract_shard,
)


def _shard(module: str, source: str) -> ModuleShard:
    path = "src/" + module.replace(".", "/") + ".py"
    return extract_shard(path, module, ast.parse(source))


def _graph(**modules: str) -> ProjectGraph:
    graph = ProjectGraph()
    for module, source in modules.items():
        graph.add_shard(_shard(module, source))
    return graph


# ------------------------------------------------------------- extraction


def test_shard_records_classes_functions_imports():
    shard = _shard(
        "repro.sim.demo",
        "import os\n"
        "from repro.common.rng import ensure_rng\n"
        "class Car(Base):\n"
        "    def drive(self):\n"
        "        pass\n"
        "def top():\n"
        "    pass\n",
    )
    assert shard.classes["Car"]["bases"] == ["Base"]
    assert "drive" in shard.classes["Car"]["methods"]
    assert "top" in shard.top_functions
    assert "os" in shard.imports and "repro.common.rng" in shard.imports
    assert shard.bindings["ensure_rng"] == "repro.common.rng.ensure_rng"


def test_shard_records_mutable_and_rng_slots():
    shard = _shard(
        "repro.sim.demo",
        "STATE = []\nTABLE = dict()\nSTREAM = ensure_rng(3)\nSCALAR = 4\n",
    )
    assert {s.name: s.kind for s in shard.mutables} == {
        "STATE": "list",
        "TABLE": "dict",
    }
    assert [s.name for s in shard.rng_slots] == ["STREAM"]


def test_shard_records_scheduler_callbacks_and_lambdas():
    shard = _shard(
        "repro.sim.demo",
        "def install(sched):\n"
        "    sched.schedule_at(0.0, tick)\n"
        "    sched.schedule_in(1.0, lambda: tock())\n"
        "def tick():\n"
        "    pass\n"
        "def tock():\n"
        "    pass\n",
    )
    install = shard.defs["install"]
    kinds = {(ref.kind, ref.target) for ref in install.callbacks}
    assert ("name", "tick") in kinds
    assert any(kind == "local" and "lambda" in target for kind, target in kinds)
    # The lambda body became a pseudo-function that calls tock.
    lambda_qual = next(q for q in shard.defs if "lambda" in q)
    assert CallRef("name", "tock") in shard.defs[lambda_qual].calls


# -------------------------------------------------------------- hierarchy


def test_hierarchy_transitive_repro_error():
    hierarchy = ClassHierarchy()
    hierarchy.add("ReproError", ["Exception"])
    hierarchy.add("TubError", ["ReproError"])
    hierarchy.add("TubCorrupt", ["TubError"])
    hierarchy.add("Rogue", ["RuntimeError"])
    assert hierarchy.is_repro_error("TubCorrupt")
    assert not hierarchy.is_repro_error("Rogue")
    assert not hierarchy.is_repro_error("Unknown")


def test_hierarchy_survives_cycles():
    hierarchy = ClassHierarchy()
    hierarchy.add("A", ["B"])
    hierarchy.add("B", ["A"])
    assert not hierarchy.is_repro_error("A")
    assert hierarchy.mro_names("A")[0] == "A"


def test_builtin_exception_lookup():
    assert ClassHierarchy.is_builtin_exception("ValueError")
    assert not ClassHierarchy.is_builtin_exception("int")
    assert not ClassHierarchy.is_builtin_exception("nonsense")


# ------------------------------------------------------------- the graph


def test_import_edges_restricted_to_project():
    graph = _graph(**{
        "repro.common.rng": "def ensure_rng(seed):\n    pass\n",
        "repro.sim.world": "import os\nfrom repro.common.rng import ensure_rng\n",
    })
    edges = graph.import_edges()
    assert edges["repro.sim.world"] == frozenset({"repro.common.rng"})


def test_call_graph_resolves_across_modules():
    graph = _graph(**{
        "repro.sim.engine": (
            "def step():\n"
            "    helper()\n"
            "def helper():\n"
            "    pass\n"
        ),
        "repro.sim.driver": (
            "from repro.sim.engine import step\n"
            "def run():\n"
            "    step()\n"
        ),
    })
    assert "repro.sim.engine.step" in graph.edges()["repro.sim.driver.run"]
    reach = graph.reachable("repro.sim.driver.run")
    assert "repro.sim.engine.helper" in reach


def test_method_resolution_walks_hierarchy():
    graph = _graph(**{
        "repro.sim.base": (
            "class Base:\n"
            "    def on_tick(self):\n"
            "        pass\n"
        ),
        "repro.sim.child": (
            "from repro.sim.base import Base\n"
            "class Child(Base):\n"
            "    def go(self):\n"
            "        self.on_tick()\n"
        ),
    })
    assert (
        "repro.sim.base.Base.on_tick"
        in graph.edges()["repro.sim.child.Child.go"]
    )


def test_race_detected_across_modules():
    graph = _graph(**{
        "repro.sim.state": (
            "LOG = []\n"
            "def tick():\n"
            "    LOG.append(1)\n"
            "def tock():\n"
            "    LOG.append(2)\n"
        ),
        "repro.sim.setup": (
            "from repro.sim.state import tick, tock\n"
            "def install(sched):\n"
            "    sched.schedule_at(0.0, tick)\n"
            "    sched.schedule_at(0.0, tock)\n"
        ),
    })
    races = [f for f in graph.flow_findings() if f.kind == "race"]
    assert {f.subject for f in races} == {"LOG"}
    assert all(
        f.roots == ("repro.sim.state.tick", "repro.sim.state.tock")
        for f in races
    )
    # Findings are attributed to the write sites in the owning file.
    assert {f.path for f in races} == {"src/repro/sim/state.py"}


def test_single_root_is_not_a_race():
    graph = _graph(**{
        "repro.sim.state": (
            "LOG = []\n"
            "def tick():\n"
            "    LOG.append(1)\n"
            "    more()\n"
            "def more():\n"
            "    LOG.append(2)\n"
            "def install(sched):\n"
            "    sched.schedule_at(0.0, tick)\n"
        ),
    })
    assert graph.flow_findings() == []


def test_shared_rng_stream_detected():
    graph = _graph(**{
        "repro.sim.streams": (
            "STREAM = ensure_rng(7)\n"
            "def a():\n"
            "    return STREAM.random()\n"
            "def b():\n"
            "    return STREAM.random()\n"
            "def install(sched):\n"
            "    sched.schedule_at(0.0, a)\n"
            "    sched.schedule_in(1.0, b)\n"
        ),
    })
    shared = [f for f in graph.flow_findings() if f.kind == "shared-rng"]
    assert len(shared) == 1
    assert shared[0].subject == "STREAM"
    assert shared[0].line == 1  # reported at the construction site


def test_flow_findings_for_filters_by_path():
    graph = _graph(**{
        "repro.sim.state": (
            "LOG = []\n"
            "def tick():\n"
            "    LOG.append(1)\n"
            "def tock():\n"
            "    LOG.append(2)\n"
            "def install(sched):\n"
            "    sched.schedule_at(0.0, tick)\n"
            "    sched.schedule_at(0.0, tock)\n"
        ),
    })
    assert graph.flow_findings_for("src/repro/sim/state.py")
    assert graph.flow_findings_for("src/repro/sim/other.py") == []

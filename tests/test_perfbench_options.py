"""perfbench passes Simulation's options by keyword; its spelling must build.

perfbench's own tests run outside this suite, so a renamed option (say
drop_confirmed_round, which its gate test passes through run_rep's
`faults`) would otherwise go unnoticed here.
"""

import importlib.util
import sys
from pathlib import Path

from pipechain import SimConfig, Simulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # rep imports its sibling `tracing` by that name; undone after the test
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_steady_workload_builds_with_perfbench_drop_fault(monkeypatch):
    _load(monkeypatch, "tracing")
    rep = _load(monkeypatch, "rep")
    config = SimConfig(seed=3, **rep.WORKLOADS["steady"].config)
    sim = Simulation(config, drop_confirmed_round=4)
    assert sim.options.drop_confirmed_round == 4

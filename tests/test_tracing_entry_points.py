"""perfbench's tracer wraps library entry points by name; each must exist.

perfbench's own tests run outside this suite, so a rename or fold of a
traced method (say LeafRpc.process_round) would otherwise go unnoticed here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracing = _tracing()
    for _, module_name, path in tracing.ENTRY_POINTS:
        owner = importlib.import_module(f"pipechain.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the tracer rebinds the attribute on the owner that defines it
        assert callable(owner.__dict__.get(attr)), (module_name, path)


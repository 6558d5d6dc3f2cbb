"""perfbench's tracer wraps library entry points by name; each must exist
and must still be entered by a run.

perfbench's own tests run outside this suite, so a rename or fold of a
traced method (say LeafRpc.process_round), or work that bypasses one, would
otherwise go unnoticed here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _rep(monkeypatch):
    """perfbench's rep module, loaded with its sibling `tracing`."""
    for name in ("tracing", "rep"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # rep imports its sibling `tracing` by that name; undone after the test
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return module


def test_every_traced_span_is_entered(monkeypatch):
    # a storage node that applied a block without going through
    # apply_confirmed, say, would leave storage.apply_* at 0
    record = _rep(monkeypatch).run_rep("steady", 3, trace=True, rounds=12)
    layers, model = record["layers"], record["model"]
    assert layers["storage.apply_digests"] == model["hashes_storage"]
    assert layers["pipeline.leaf_digests"] == model["hashes_leaf"]
    assert layers["pipeline.inner_digests"] == model["hashes_inner"]
    for count in ("committee.received", "ledger.verify_proof_calls", "pipeline.leaf_txs",
                  "storage.apply_txs", "storage.serve_calls", "storage.audit_checked",
                  "oracle.apply_digests"):
        assert layers[count] > 0, count
    # the digest and call counts of this run, pinned: a layer that starts
    # hashing more or less (a storage rewrite, say) changes one of them
    assert {name: layers[name] for name in PINNED_LAYERS} == PINNED_LAYERS
    assert model["hashes_cc"] == 18_700


def test_every_round_audit_is_charged_to_storage_audit(monkeypatch):
    # with audit_proofs on, each round's audit re-folds through audit_stored,
    # so storage.audit counts its checks besides the closing audit's
    record = _rep(monkeypatch).run_rep(
        "steady", 3, trace=True, rounds=6, faults={"audit_proofs": True}
    )
    assert record["layers"]["storage.audit_checked"] > record["closing_audit"]["checked"] > 0


PINNED_LAYERS = {
    "pipeline.leaf_digests": 8_994,
    "pipeline.inner_digests": 84,
    "storage.apply_digests": 7_445,
    "storage.audit_digests": 4_829,
    "storage.audit_checked": 595,
    "oracle.apply_digests": 9_999,
    "ledger.verify_proof_calls": 1_100,
    "storage.serve_calls": 1_100,
}

"""Per-layer spans and digest counts, recorded from outside the library.

The tracer rebinds the public entry points of each pipechain module (class
methods and module globals) to wrappers while it is installed, and restores
the originals when it is removed, so nothing under src/ changes.  Spans stay
in memory until the repetition ends.

Digests (node_hash + leaf_hash evaluations) are counted by rebinding those
names in every module that calls them and charging each call to the
innermost open span.  merkle has no span of its own, so its digest work is
charged to the layer that called into it.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
from contextlib import contextmanager
from time import perf_counter

# span name, module, attribute path of the entry point it wraps
ENTRY_POINTS = (
    ("engine.init", "engine", "Simulation.__init__"),
    ("engine.run", "engine", "Simulation.run"),
    ("committee.confirm", "committee", "ConfirmationCommittee.confirm_round"),
    # the name ledger's syntactic check resolves: a child of committee.confirm
    ("ledger.verify_proof", "ledger", "verify_proof"),
    ("pipeline.init", "pipeline", "LeafRpc.__init__"),
    ("pipeline.init", "pipeline", "InnerRpc.__init__"),
    ("pipeline.leaf", "pipeline", "LeafRpc.process_round"),
    ("pipeline.inner", "pipeline", "InnerRpc.fold_round"),
    ("storage.init", "storage", "StorageNode.__init__"),
    ("storage.apply", "storage", "StorageNode.apply_confirmed"),
    ("storage.serve", "storage", "StorageNode.serve_proof"),
    ("storage.audit", "storage", "StorageNode.audit_stored"),
    ("oracle.init", "oracle", "LedgerOracle.__init__"),
    ("oracle.apply", "oracle", "LedgerOracle.apply_sequence"),
)

DIGEST_FUNCTIONS = ("node_hash", "leaf_hash")
DIGEST_MODULES = ("merkle", "pipeline", "storage", "oracle")

# work counted at a span boundary: span name -> {counter: fn(args, result)}
WORK_COUNTERS = {
    "committee.confirm": {
        "received": lambda args, result: result[2].received,
        "accepted": lambda args, result: result[2].accepted,
    },
    "pipeline.leaf": {"txs": lambda args, result: len(args[1])},
    "storage.apply": {"txs": lambda args, result: len(args[1])},
    "storage.audit": {"checked": lambda args, result: result[0]},
}

OUTSIDE = "outside"  # digests computed while no span is open


class Tracer:
    """Spans and counts for every wrapped call made while installed."""

    def __init__(self) -> None:
        names = sorted({name for name, _, _ in ENTRY_POINTS})
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.self_s = dict.fromkeys(names, 0.0)
        self.calls = dict.fromkeys(names, 0)
        self.digests = dict.fromkeys(names + [OUTSIDE], 0)
        self.work = {
            name: dict.fromkeys(counters, 0) for name, counters in WORK_COUNTERS.items()
        }

    def clear(self) -> None:
        """Forget everything recorded so far; call it while no span is open.

        The tables are reset in place because the installed wrappers hold
        references to them."""
        self.spans.clear()
        self.self_s.update(dict.fromkeys(self.self_s, 0.0))
        for table in (self.calls, self.digests, *self.work.values()):
            table.update(dict.fromkeys(table, 0))

    @contextmanager
    def installed(self):
        """Rebind every entry point and digest function; restore on exit."""
        saved = []
        # open spans, innermost last: [id, name, seconds spent in children];
        # the bottom frame stands for "no span open"
        stack: list[list] = [[None, OUTSIDE, 0.0]]
        innermost = [OUTSIDE]  # name of stack[-1], kept apart for the digest hot path
        ids = itertools.count()

        def span(name, fn):
            work = WORK_COUNTERS.get(name, {})

            def wrapper(*args, **kwargs):
                sid = next(ids)
                frame = [sid, name, 0.0]
                stack.append(frame)
                innermost[0] = name
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    parent = stack[-1]
                    innermost[0] = parent[1]
                    duration = end - start
                    self.self_s[name] += duration - frame[2]
                    self.calls[name] += 1
                    parent[2] += duration
                    self.spans.append((sid, parent[0], name, start, end))
                for counter, count in work.items():
                    self.work[name][counter] += count(args, result)
                return result

            return wrapper

        def counted(fn):
            digests = self.digests

            # both digest functions take two positional arguments
            def wrapper(first, second):
                digests[innermost[0]] += 1
                return fn(first, second)

            return wrapper

        def rebind(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for name, module_name, path in ENTRY_POINTS:
                owner = importlib.import_module(f"pipechain.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                rebind(owner, attr, span(name, owner.__dict__[attr]))
            for module_name in DIGEST_MODULES:
                module = importlib.import_module(f"pipechain.{module_name}")
                for attr in DIGEST_FUNCTIONS:
                    if attr in module.__dict__:
                        rebind(module, attr, counted(module.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps([sid, parent, name, start, end]) + "\n")

    def layer_metrics(self) -> dict:
        """Self time, calls, work and digest counts per layer, by metric name."""
        self_s, calls, digests, work = self.self_s, self.calls, self.digests, self.work
        checked = work["storage.audit"]["checked"]
        received = work["committee.confirm"]["received"]
        return {
            "engine.init_s": self_s["engine.init"],
            "engine.self_s": self_s["engine.run"],
            "committee.confirm_s": self_s["committee.confirm"],
            "committee.received": received,
            "committee.accept_ratio": (
                work["committee.confirm"]["accepted"] / received if received else 0.0
            ),
            "ledger.verify_proof_s": self_s["ledger.verify_proof"],
            "ledger.verify_proof_calls": calls["ledger.verify_proof"],
            "pipeline.init_s": self_s["pipeline.init"],
            "pipeline.leaf_s": self_s["pipeline.leaf"],
            "pipeline.leaf_txs": work["pipeline.leaf"]["txs"],
            "pipeline.leaf_digests": digests["pipeline.leaf"],
            "pipeline.inner_s": self_s["pipeline.inner"],
            "pipeline.inner_digests": digests["pipeline.inner"],
            "storage.init_s": self_s["storage.init"],
            "storage.apply_s": self_s["storage.apply"],
            "storage.apply_txs": work["storage.apply"]["txs"],
            "storage.apply_digests": digests["storage.apply"],
            "storage.serve_s": self_s["storage.serve"],
            "storage.serve_calls": calls["storage.serve"],
            "storage.audit_s": self_s["storage.audit"],
            "storage.audit_checked": checked,
            "storage.audit_digests": digests["storage.audit"],
            "storage.audit_digests_per_checked": (
                digests["storage.audit"] / checked if checked else 0.0
            ),
            "oracle.init_s": self_s["oracle.init"],
            "oracle.apply_s": self_s["oracle.apply"],
            "oracle.apply_digests": digests["oracle.apply"],
        }

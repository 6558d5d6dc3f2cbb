"""One benchmark repetition: build a workload's simulation, run it, gate it.

Run as a script, it performs exactly one repetition in this process and
prints its record as one JSON line, so that peak RSS belongs to that
repetition alone:

    python3 perfbench/rep.py --workload steady --seed 1 --trace 0

The library is always imported from the src/ directory of the checkout this
file sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, process_time

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(Exception):
    """The pipechain sources are not where the benchmark expects them."""


def import_pipechain():
    """Import pipechain from this checkout's src/ directory."""
    if not (SRC / "pipechain" / "__init__.py").is_file():
        raise CheckoutError(f"no pipechain sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pipechain

    if Path(pipechain.__file__).resolve().parent != SRC / "pipechain":
        raise CheckoutError(f"pipechain was imported from {pipechain.__file__}")
    return pipechain


@dataclass(frozen=True)
class Workload:
    """A closed-loop batch workload: f submissions per round for `rounds`.

    `config` holds SimConfig fields (the seed comes from the command line)
    and `setups` how many times a repetition constructs the simulation to
    time set-up.
    """

    config: dict
    setups: int = 1


# The acceptance config: the one every acceptance criterion uses.
ACCEPTANCE = dict(
    address_bits=16, f=50, n_c=4, leaf_count=8, j=7, e=13, rho=1,
    initial_accounts=256, initial_balance=1_000_000, oracle_enabled=True,
)

WORKLOADS = {
    # balanced mix: no layer dominates; storage both writes and serves
    "steady": Workload(dict(ACCEPTANCE, rounds=200), setups=5),
    # large address space and fan-out: oracle set-up, memory, proof serving
    "wide": Workload(
        dict(ACCEPTANCE, address_bits=24, f=400, n_c=64, leaf_count=256,
             initial_accounts=4096, rounds=10),
        setups=1,
    ),
}

COMMITTEE_KINDS = ("cc", "leaf", "inner", "storage")

# Host-speed reference: a fixed pure-Python task (sha256 chains, dict
# inserts, tuple allocation, a sort: the simulator's kinds of work), timed in
# every repetition's process before set-up and again once the simulation is
# freed, so that its time depends on the host and not on the program's heap.
# REFERENCE_S is its nominal time per call.
REFERENCE_S = 0.016
REFERENCE_CALLS = 10  # per timing, two timings per repetition


def reference_task() -> int:
    rng = random.Random(5)
    table = {}
    digest = b"x"
    rows = []
    for i in range(6000):
        digest = hashlib.sha256(digest + i.to_bytes(4, "big")).digest()
        table[digest[:3]] = (i, digest)
        if i % 3 == 0:
            rows.append(tuple(rng.random() for _ in range(3)))
    return len(sorted(table.items())) + len(rows)


def time_reference() -> float:
    """Mean wall time of one reference_task() call, over REFERENCE_CALLS.

    The cyclic collector is off while it runs: a collection's cost grows
    with every live object in the process, which would tie the reference
    to the program's memory."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(REFERENCE_CALLS):
            reference_task()
        return (perf_counter() - start) / REFERENCE_CALLS
    finally:
        gc.enable()


def report_sha256(pipechain, result) -> str:
    """sha256 of the JSON-lines report exactly as `pipechain run` writes it."""
    digest = hashlib.sha256()
    for line in pipechain.report_lines(result):
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def model_hashes(result) -> dict:
    """HashCounter totals per committee kind, summed over the report rows."""
    totals = dict.fromkeys(COMMITTEE_KINDS, 0)
    for row in result.reports:
        for entry in row["per_committee"]:
            totals[entry["id"].split("-", 1)[0]] += entry["hashes"]
    return totals


def gate(result, rounds: int, closing_checked: int, closing_failed: int) -> dict:
    """Output checks for one repetition, with its failure shares.

    A round fails when it was never reached, its block's oracle verdict is
    not `match`, or its storage audit found a bad proof.  When a check over
    the whole run fails, every round fails.
    """
    summary = result.summary
    rows = {row["round"]: row for row in result.reports}
    failed_rounds = sum(
        1
        for r in range(1, rounds + 1)
        if r not in rows or rows[r]["oracle"] != "match" or rows[r]["audit"]["failed"]
    )
    mismatched = sum(1 for row in result.reports if row["oracle"] != "match")
    audit = summary["audit"]
    supply = summary["supply"]
    checks = {
        "result_ok": result.ok,
        "all_rounds_run": summary["rounds_run"] == rounds,
        "oracle_match_every_block": mismatched == 0,
        "no_latency_violations": summary["latency"]["violations"] == 0,
        "supply_conserved": supply["min"] == supply["max"] == supply["initial"],
        "no_audit_failures": audit["failed"] == 0,
        "closing_audit_clean": closing_checked > 0 and closing_failed == 0,
    }
    whole_run = ("no_latency_violations", "supply_conserved", "closing_audit_clean")
    if not all(checks[name] for name in whole_run):
        failed_rounds = rounds
    return {
        "checks": checks,
        "ok": all(checks.values()),
        "failed_rounds": failed_rounds,
        "block_fail_share": (mismatched + rounds - summary["rounds_run"]) / rounds,
        "audit_fail_share": audit["failed"] / audit["checked"] if audit["checked"] else 0.0,
    }


def run_rep(
    workload: str,
    seed: int,
    *,
    trace: bool = False,
    rounds: int | None = None,
    faults: dict | None = None,
    spans_out: Path | None = None,
) -> dict:
    """Run one repetition in this process and return its record.

    `rounds` shortens the workload (for tests) and `faults` adds Simulation
    fault options (for testing the gate).  With `trace`, the last set-up, the
    run and the closing audit are traced and the record gets `layers`.
    """
    pipechain = import_pipechain()
    spec = WORKLOADS[workload]
    config = pipechain.SimConfig(seed=seed, **spec.config)
    if rounds is not None:
        config = replace(config, rounds=rounds)
    options = faults or {}
    tracer = Tracer() if trace else None

    reference_s = [time_reference()]
    setup_s = []
    with tracer.installed() if tracer else nullcontext():
        for _ in range(spec.setups):
            sim = None  # free the previous simulation first: peak RSS is one simulation's
            if tracer:
                tracer.clear()
            start = perf_counter()
            sim = pipechain.Simulation(config, **options)
            setup_s.append(perf_counter() - start)

        start, cpu_start = perf_counter(), process_time()
        result = sim.run()
        run_s = perf_counter() - start
        run_cpu_s = process_time() - cpu_start

        # closing audit: every storage node proves every stored balance
        # against the newest block; outside run_s, so it moves no timing
        closing_checked = closing_failed = 0
        for key in sorted(sim.storage):
            checked, failed = sim.storage[key].audit_stored()
            closing_checked += checked
            closing_failed += failed

    record = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "rounds": config.rounds,
        "setup_s": setup_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_sha256": report_sha256(pipechain, result),
        "model": {
            "accepted_total": result.summary["accepted_total"],
            "rounds_run": result.summary["rounds_run"],
            **{f"hashes_{kind}": n for kind, n in model_hashes(result).items()},
        },
        "closing_audit": {"checked": closing_checked, "failed": closing_failed},
        "gate": gate(result, config.rounds, closing_checked, closing_failed),
    }
    sim = result = None
    reference_s.append(time_reference())
    record["reference_s"] = sum(reference_s) / len(reference_s)
    if tracer:
        record["layers"] = {
            "engine.setup_s": setup_s[-1],
            "engine.run_s": run_s,
            **tracer.layer_metrics(),
        }
        if spans_out is not None:
            tracer.write_spans(spans_out)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, help="gzipped JSON-lines span dump")
    args = parser.parse_args(argv)
    try:
        record = run_rep(
            args.workload, args.seed, trace=bool(args.trace), spans_out=args.spans_out
        )
    except CheckoutError as exc:
        print(f"rep: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

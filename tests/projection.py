"""Projection check for a model change that moves only leaf digest counts.

Runs the pinned report cases (the four configs of test_report_bytes_pinned)
and the two benchmark workloads at seeds 1 to 3 (`steady` at seed 1 is the
acceptance run) and, at seed 2, with two replicas over 40 rounds plain,
audited and with expired-proof injection, against the pipechain sources
under --src.  For each case it prints its name, the sha256 of the JSON-lines
report with every leaf committee's `hashes` and `summary.peaks.rpc_hashes`
blanked (16 hex digits), and the sha256 of the report as written.  Run it on
two checkouts and compare: equal second columns mean the reports differ in
those fields alone, so roots, oracle verdicts, accepted counts and every
other meter agree.

    python tests/projection.py --src path/to/checkout/src
"""

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _cases(pipechain, golden, engine_config, workloads):
    """(name, SimConfig, options) for every case, in a fixed order."""
    names = ["tiers-replicas-audit", "single-leaf", "faults", "fatal"]
    for name, (overrides, options, _) in zip(names, golden):
        yield name, engine_config(rounds=20, **overrides), options
    for workload, spec in sorted(workloads.items()):
        for seed in (1, 2, 3):
            yield f"{workload}-{seed}", pipechain.SimConfig(seed=seed, **spec.config), {}
        config = replace(pipechain.SimConfig(seed=2, **spec.config), rho=2, rounds=40)
        for label, options in (
            ("plain", {}),
            ("audit", dict(audit_proofs=True)),
            ("inject", dict(expired_injection_rate=2)),
        ):
            yield f"{workload}-2-rho2-{label}", config, options


def _masked(rows, summary) -> None:
    for row in rows:
        for entry in row["per_committee"]:
            if entry["id"].startswith("leaf-"):
                entry["hashes"] = None
    summary["peaks"]["rpc_hashes"] = None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="a checkout's src/ directory")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(TESTS), str(TESTS.parent / "perfbench")]
    import pipechain
    from rep import WORKLOADS
    from test_engine import GOLDEN_REPORTS, _config

    for name, config, options in _cases(pipechain, GOLDEN_REPORTS, _config, WORKLOADS):
        result = pipechain.Simulation(config, **options).run()
        lines = list(pipechain.report_lines(result))
        written = hashlib.sha256("".join(line + "\n" for line in lines).encode())
        _masked(result.reports, result.summary)
        masked = hashlib.sha256("".join(pipechain.report_lines(result)).encode())
        print(name, masked.hexdigest()[:16], written.hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

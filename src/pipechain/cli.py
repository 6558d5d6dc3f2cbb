"""Command line front end.

Subcommands: dimension (committee counts for a workload), run (simulate and
emit a JSON-lines report), verify (run with full per-round proof audits),
scale (proportional-scaling experiment, CSV output).

Exit codes: 0 success, 2 configuration error, 3 state divergence at genesis
or during a run, a failed verify audit included (so a reported row's
audit.failed reads 0), 4 scale experiment found an overloaded or truncated run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import replace

from .engine import GenesisMismatch, SimConfig, Simulation, report_lines
from .pipeline import build_topology, fold_levels
from .provisioning import provision_after_doubling, provision_minimal, scale_experiment

SEED_ENV = "PIPECHAIN_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_UNDERPROVISIONED = 4


class ConfigError(Exception):
    pass


def load_config(path: str) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    try:
        return SimConfig.from_mapping(data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc


def resolve_config(args) -> SimConfig:
    cfg = load_config(args.config)
    overrides = {}
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            overrides["seed"] = int(env_seed, 0)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV} must be an integer: {env_seed!r}") from exc
    elif getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "rounds", None) is not None:
        overrides["rounds"] = args.rounds
    cfg = replace(cfg, **overrides) if overrides else cfg
    try:
        return cfg.validated()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_dimension(args) -> int:
    provision = provision_after_doubling if args.after_doubling else provision_minimal
    try:
        leaf = provision(args.changes, args.leaf_capacity)
        levels = fold_levels(args.hash_budget)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the deployment a run with this many leaves builds, in the narrowest
    # address space that fits (the counts do not depend on it)
    topology = build_topology(leaf, args.hash_budget, leaf.bit_length())
    if args.json:
        print(json.dumps({
            "leaf_rpcs": leaf,
            "fold_levels": levels,
            "inner_rpcs": topology.inner_count,
            "rpc_levels": topology.rpc_levels,
            "stages": topology.stages,
        }, sort_keys=True))
        return EXIT_OK
    print(f"leaf rpcs:           {leaf}")
    print(f"fold levels:         {levels}")
    print(f"inner rpcs:          {topology.inner_count}")
    print(f"pipeline levels:     {topology.rpc_levels}")
    print(f"stages (latency):    {topology.stages}")
    return EXIT_OK


def _open_output(path):
    """The stream to write to: stdout, or path opened up front so that an
    unwritable path is a config error before anything is simulated."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _run_simulation(args, *, audit: bool) -> int:
    cfg = resolve_config(args)
    try:
        sim = Simulation(
            cfg,
            balanced_workload=args.balanced,
            audit_proofs=audit,
            expired_injection_rate=args.expired_injection,
            drop_confirmed_round=args.drop_confirmed_round,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except GenesisMismatch as exc:
        print(f"rounds=0/{cfg.rounds} fatal=genesis mismatch: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    with _open_output(args.report) as handle:
        result = sim.run()
        for line in report_lines(result):
            handle.write(line + "\n")
    summary = result.summary
    idle = ",".join(summary.get("idle_faults", ()))
    print(
        f"rounds={summary['rounds_run']}/{cfg.rounds}"
        f" accepted={summary['accepted_total']}"
        f" fatal={summary['fatal'] or 'none'}" + (f" idle_faults={idle}" if idle else ""),
        file=sys.stderr,
    )
    return EXIT_OK if result.ok else EXIT_DIVERGED


SCALE_COLUMNS = [
    "alpha",
    "n_c",
    "leaf_rpcs",
    "inner_rpcs",
    "q",
    "peak_cc_tx",
    "peak_rpc_hashes",
    "peak_msgs",
    "verdict",
]


def _scale_row(run) -> dict:
    """A scale run's CSV row, read from its summary."""
    summary = run.summary
    committees, peaks = summary["committees"], summary["peaks"]
    return dict(zip(SCALE_COLUMNS, (
        run.alpha,
        committees["cc"],
        committees["leaf"],
        committees["inner"],
        summary["stages"],
        peaks["cc_tx"],
        peaks["rpc_hashes"],
        peaks["committee_msgs"],
        run.verdict,
    )))


def _cmd_scale(args) -> int:
    cfg = resolve_config(args)
    try:
        alphas = [int(part) for part in args.alphas.split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"--alphas expects integers, got {args.alphas!r}") from exc
    if not alphas:
        raise ConfigError("--alphas is empty")

    def progress(run):
        row = _scale_row(run)
        committees = row["n_c"] + row["leaf_rpcs"] + row["inner_rpcs"]
        print(
            f"alpha={run.alpha}: committees={committees}"
            f" peak_cc_tx={row['peak_cc_tx']} peak_rpc_hashes={row['peak_rpc_hashes']}"
            f" peak_msgs={row['peak_msgs']} {run.verdict}",
            file=sys.stderr,
        )

    with _open_output(args.csv) as handle:
        try:
            runs = scale_experiment(cfg, alphas, progress=progress)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        writer = csv.DictWriter(handle, fieldnames=SCALE_COLUMNS)
        writer.writeheader()
        writer.writerows(map(_scale_row, runs))
    return (
        EXIT_OK
        if all(run.well_provisioned for run in runs)
        else EXIT_UNDERPROVISIONED
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON simulation config")
    parser.add_argument("--seed", type=int, help=f"override seed ({SEED_ENV} wins)")
    parser.add_argument("--rounds", type=int, help="override round count")
    parser.add_argument("--report", help="write JSON-lines report here (default stdout)")
    parser.add_argument(
        "--balanced",
        action="store_true",
        help="stratify submission sources per confirmation committee",
    )
    parser.add_argument(
        "--expired-injection",
        type=int,
        default=0,
        metavar="N",
        help="also submit N transactions per round carrying stale proofs",
    )
    parser.add_argument(
        "--drop-confirmed-round",
        type=int,
        metavar="ROUND",
        help="fault hook: lose one confirmed tx downstream in this round",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipechain",
        description="simulate a pipelined committee ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dim = sub.add_parser("dimension", help="committee counts for a workload")
    dim.add_argument("--changes", "-m", type=int, required=True,
                     help="balance changes per round")
    dim.add_argument("--leaf-capacity", "-e", type=int, required=True,
                     help="changes one leaf rpc absorbs per round")
    dim.add_argument("--hash-budget", "-j", type=int, required=True,
                     help="hashes one rpc computes per round")
    dim.add_argument("--after-doubling", action="store_true",
                     help="size for the moment right after a doubling step")
    dim.add_argument("--json", action="store_true", help="machine-readable output")
    dim.set_defaults(func=_cmd_dimension)

    run = sub.add_parser("run", help="simulate and report")
    _add_run_arguments(run)
    run.set_defaults(func=lambda args: _run_simulation(args, audit=False))

    verify = sub.add_parser(
        "verify", help="simulate with full per-round proof audits"
    )
    _add_run_arguments(verify)
    verify.set_defaults(func=lambda args: _run_simulation(args, audit=True))

    scale = sub.add_parser("scale", help="proportional-scaling experiment")
    scale.add_argument("--config", required=True, help="base (alpha=1) JSON config")
    scale.add_argument("--seed", type=int, help=f"override seed ({SEED_ENV} wins)")
    scale.add_argument("--rounds", type=int, help="override round count")
    scale.add_argument("--alphas", default="1,2,4,8",
                       help="comma-separated scale factors")
    scale.add_argument("--csv", help="write the CSV here (default stdout)")
    scale.set_defaults(func=_cmd_scale)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()

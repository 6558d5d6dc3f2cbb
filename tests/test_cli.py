"""Command line interface: exit codes, report files, CSV output."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pipechain import cli
from pipechain.ledger import Batch, Transaction, Transfer
from pipechain.merkle import PrunedTree
from pipechain.network import Network
from pipechain.oracle import LedgerOracle
from pipechain.pipeline import build_topology
from pipechain.storage import StorageNode

BASE_CONFIG = {
    "seed": 7,
    "address_bits": 12,
    "f": 16,
    "n_c": 4,
    "leaf_count": 4,
    "j": 7,
    "e": 8,
    "rho": 1,
    "rounds": 10,
    "initial_accounts": 64,
    "initial_balance": 1000,
}

ACCEPTANCE_CONFIG = {
    **BASE_CONFIG,
    "seed": 1,
    "address_bits": 16,
    "f": 50,
    "leaf_count": 8,
    "e": 13,
    "rounds": 200,
    "initial_accounts": 256,
    "initial_balance": 1_000_000,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


@pytest.fixture(autouse=True)
def _clear_seed_env(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)


@pytest.fixture
def sims(monkeypatch):
    """The simulations cli.main builds, newest last; each is recorded before
    its construction starts, so a network patch can read the one it serves."""
    built = []
    init = cli.Simulation.__init__

    def record(sim, *args, **kwargs):
        built.append(sim)
        init(sim, *args, **kwargs)

    monkeypatch.setattr(cli.Simulation, "__init__", record)
    return built


def test_dimension_text(capsys):
    assert cli.main(["dimension", "-m", "200", "-e", "10", "-j", "7"]) == 0
    out = capsys.readouterr().out
    assert "leaf rpcs" in out
    assert "32" in out


def test_dimension_json(capsys):
    assert cli.main(["dimension", "-m", "200", "-e", "10", "-j", "7", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data) == ["fold_levels", "inner_rpcs", "leaf_rpcs", "rpc_levels", "stages"]
    assert data["leaf_rpcs"] == 32
    assert data["fold_levels"] == 3
    assert data["inner_rpcs"] == 5
    assert data["stages"] == data["rpc_levels"] + 1


def test_dimension_after_doubling(capsys):
    # at j = 7 one inner committee folds all 8 portion roots (3 levels, 7
    # hashes), as the simulator builds it
    for budget in ("1023", "7"):
        argv = ["dimension", "-m", "128", "-e", "32", "-j", budget, "--after-doubling"]
        assert cli.main(argv + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["leaf_rpcs"] == 8
        assert data["inner_rpcs"] == 1, budget


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-m", "0", "-e", "1", "-j", "7"], "workload and capacity must be >= 1"),
        (["-m", "0", "-e", "1", "-j", "7", "--after-doubling"],
         "workload and capacity must be >= 1"),
        (["-m", "1", "-e", "1", "-j", "0"], "hash_budget must be >= 1"),
        (["-m", "24", "-e", "4", "-j", "7", "--after-doubling"],
         "changes/capacity must be a power of two after doubling"),
    ],
)
def test_dimension_errors_exit_2(argv, message, capsys):
    assert cli.main(["dimension", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_console_script_path():
    # the module's __main__ block and entrypoint, as the installed script runs them
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "pipechain.cli", "dimension", "-m", "1", "-e", "1",
            "-j", "1", "--json"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["leaf_rpcs"] == 1
    proc = subprocess.run(argv + ["--cc", "1"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2 and "--cc" in proc.stderr


def test_run_writes_report(config_path, tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code = cli.main(["run", "--config", config_path, "--report", str(report)])
    assert code == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 11  # one row per round plus the summary line
    rows = [json.loads(line) for line in lines]
    assert all(row["oracle"] == "match" for row in rows[:-1])
    err = capsys.readouterr().err
    assert "rounds=10/10" in err


def test_run_stdout_report(config_path, capsys):
    assert cli.main(["run", "--config", config_path]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert len(out_lines) == 11
    for line in out_lines:
        json.loads(line)


def test_run_rounds_override(config_path, capsys):
    assert cli.main(["run", "--config", config_path, "--rounds", "4"]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert len(out_lines) == 5


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BASE_CONFIG, "alpha": 2}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", str(path)]) == 2


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("oracle_enabled", [True, False])
def test_drop_fault_exits_3(oracle_enabled, tmp_path, capsys):
    # with the oracle off, the clients' settled-balance check is the detector
    # that fires; round 7 is the last whose entry settles within 10 rounds
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, "oracle_enabled": oracle_enabled}))
    for drop_round in ("5", "7"):
        code = cli.main(
            ["run", "--config", str(path), "--drop-confirmed-round", drop_round]
        )
        assert code == 3
        assert "divergence" in capsys.readouterr().err


def test_lost_transfer_with_the_oracle_off_is_a_client_view_verdict(tmp_path, capsys):
    # nothing but the clients' settle check sees the transfer dropped in round
    # 5: storage and the block both lack it, and the oracle is off
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, "oracle_enabled": False}))
    report = tmp_path / "report.jsonl"
    code = cli.main(["run", "--config", str(path), "--drop-confirmed-round", "5",
                     "--report", str(report)])
    assert code == 3
    fatal = json.loads(report.read_text().splitlines()[-1])["summary"]["fatal"]
    assert re.fullmatch(
        r"storage divergence: client view of account \d+ is \d+, storage \d+/0 holds \d+",
        fatal,
    )
    assert f"fatal={fatal}" in capsys.readouterr().err


def test_idle_drop_fault_is_named_on_stderr(tmp_path, capsys):
    # round 3 of this one-account run accepts nothing, so the drop is idle
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "address_bits": 8, "f": 1, "n_c": 1, "leaf_count": 2, "rounds": 10,
        "initial_accounts": 1, "initial_balance": 1,
    }))
    assert cli.main(["run", "--config", str(path), "--drop-confirmed-round", "3",
                     "--report", str(tmp_path / "report.jsonl")]) == 0
    assert "fatal=none idle_faults=drop_confirmed_round" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(path),
                     "--report", str(tmp_path / "report.jsonl")]) == 0
    assert "idle_faults" not in capsys.readouterr().err


def test_idle_expired_injection_is_named_on_stderr(config_path, tmp_path, capsys):
    # the base config runs 10 rounds; stale proofs are injected from round 5
    path = tmp_path / "short.json"
    path.write_text(json.dumps({**BASE_CONFIG, "rounds": 5}))
    assert cli.main(["run", "--config", str(path), "--expired-injection", "3",
                     "--report", str(tmp_path / "report.jsonl")]) == 0
    assert "fatal=none idle_faults=expired_injection_rate" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(config_path), "--expired-injection", "3",
                     "--report", str(tmp_path / "report.jsonl")]) == 0
    assert "idle_faults" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_oracle_genesis_mismatch_is_a_named_fatal(
    command, config_path, tmp_path, monkeypatch, capsys
):
    # the oracle's genesis pass gives a wrong root: set-up ends with a named
    # verdict and exit 3, before any report is written
    genesis = LedgerOracle._genesis

    def wrong_root(oracle):
        genesis(oracle)
        oracle.heap[1] = bytes(32)

    monkeypatch.setattr(LedgerOracle, "_genesis", wrong_root)
    report = tmp_path / "report.jsonl"
    assert cli.main([command, "--config", config_path, "--report", str(report)]) == 3
    err = capsys.readouterr().err
    fatal = r"fatal=genesis mismatch: oracle root 0{16} != genesis root [0-9a-f]{16}"
    assert re.search(rf"^rounds=0/10 {fatal}$", err, re.M)
    assert not report.exists()


def test_storage_genesis_mismatch_names_the_replica(config_path, monkeypatch, capsys):
    # a replica's copy of its leaf committee's genesis tree holds one more
    # unit in its first account, credited from an account of the next
    # portion, which the copy does not cover: the first replica built fails
    # set-up
    copy = PrunedTree.copy

    def tampered(tree):
        twin = copy(tree)
        outside = (twin.root_index ^ 1) << twin.root_level
        twin.apply_transfers([Transfer(outside, min(twin.leaves), 1)])
        return twin

    monkeypatch.setattr(PrunedTree, "copy", tampered)
    assert cli.main(["run", "--config", config_path]) == 3
    assert "fatal=genesis mismatch: storage 0/0 root " in capsys.readouterr().err


def test_withheld_child_digest_exits_3(config_path, monkeypatch, capsys, sims):
    # a leaf's digest published in round 5 never reaches its parent: the
    # inner committee folding it in round 6 names the fault instead of
    # raising a traceback; portion roots of a 12-bit space in four portions
    # sit at level 10
    send = Network.send
    dropped = []

    def lossy(net, sender, dests, msg):
        # rounds_run counts the rounds completed before the current one
        if getattr(sims[-1], "summary", {}).get("rounds_run") == 4 and not dropped:
            if sender == ("leaf", 0) and msg[0] == (10, 0):
                dropped.append((sender, dests))
                return
        send(net, sender, dests, msg)

    monkeypatch.setattr(Network, "send", lossy)
    assert cli.main(["run", "--config", config_path]) == 3
    assert dropped == [(("leaf", 0), [("inner", 0, 0)])]
    err = capsys.readouterr().err
    assert "rounds=5/10" in err
    assert "fatal=pipeline fault: tier 0 rpc 0 is missing child digest (10, 0)" in err


def test_drop_fault_exits_3_under_optimize(tmp_path):
    # python -O strips asserts: the detectors must not be asserts
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, "oracle_enabled": False}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pipechain.cli", "run", "--config", str(path),
         "--drop-confirmed-round", "5", "--report", str(tmp_path / "report.jsonl")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "divergence" in proc.stderr


@pytest.mark.parametrize("oracle_enabled", [True, False])
@pytest.mark.parametrize("target", ["leaf", "storage"])
def test_overdraw_after_confirmation_exits_3(
    target, oracle_enabled, tmp_path, monkeypatch, capsys, sims
):
    # after confirmation, the amount of one transfer in the round-5 batch sent
    # to one leaf committee or storage node is raised by 10**12, so applying
    # it would drive the transfer's source below zero there; the base config
    # has one replica, so the storage multicast reaches that one node
    send = Network.send
    tampered = []

    def overdraw(net, sender, dests, msg):
        dest = dests[0]
        if dest[0] == target and isinstance(msg, Batch) and msg.entry == 5 and not tampered:
            if target == "leaf":
                holds = sims[-1].leaf_rpcs[dest[1]].tree.covers
            else:
                holds = sims[-1].storage[dest[1:]].tree.covers
            for i, tx in enumerate(msg.txs):
                if holds(tx.src):
                    tx = tx._replace(amount=tx.amount + 10**12)
                    msg = replace(msg, txs=msg.txs[:i] + (tx,) + msg.txs[i + 1 :])
                    tampered.append((dest[1:], tx.src))
                    break
        send(net, sender, dests, msg)

    monkeypatch.setattr(Network, "send", overdraw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, "oracle_enabled": oracle_enabled}))
    report = tmp_path / "report.jsonl"
    assert cli.main(["run", "--config", str(path), "--report", str(report)]) == 3
    summary = json.loads(report.read_text().splitlines()[-1])["summary"]
    assert len(tampered) == 1
    (node, account), = tampered
    if target == "leaf":
        # the leaf folds the batch in round 6 and names the fault there
        culprit = f"pipeline fault: leaf {node[0]}"
        assert summary["rounds_run"] == 5
    else:
        # the storage node applies it when block 5 + q - 1 arrives, a round
        # after that block is emitted
        culprit = f"storage divergence: storage {node[0]}/{node[1]}"
        cfg = BASE_CONFIG
        topo = build_topology(cfg["leaf_count"], cfg["j"], cfg["address_bits"])
        assert summary["rounds_run"] == 5 + topo.stages - 1
    assert summary["fatal"] == f"{culprit}: negative balance for account {account}"
    assert f"fatal={culprit}: " in capsys.readouterr().err


def test_destination_outside_the_address_space_is_a_bad_proof(tmp_path, monkeypatch, sims):
    # one round-5 submission's destination and its zero-balance proof move
    # to account + 2**A: a proof with A siblings folds only the low A bits of
    # its account, so without a range check it would verify, and the transfer
    # would land outside every leaf
    send = Network.send
    moved = []

    def outside(net, sender, dests, msg):
        if isinstance(msg, Transaction) and msg.entry_round == 5 and not moved:
            if msg.dst_proof.balance == 0:
                far = msg.dst + (1 << sims[-1].config.address_bits)
                proof = replace(msg.dst_proof, account=far)
                msg = replace(msg, dst=far, dst_proof=proof)
                moved.append(msg.txid)
        send(net, sender, dests, msg)

    monkeypatch.setattr(Network, "send", outside)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, "rounds": 12}))
    report = tmp_path / "report.jsonl"
    assert cli.main(["run", "--config", str(path), "--report", str(report)]) == 0
    summary = json.loads(report.read_text().splitlines()[-1])["summary"]
    assert len(moved) == 1
    assert summary["fatal"] is None
    assert summary["discard_reasons"]["bad_proof"] == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--expired-injection", "-1"],
        ["--balanced"],  # n_c = 4 does not divide f = 18
        # 10 rounds, 3 stages: a loss is only detectable in rounds 2..7
        ["--drop-confirmed-round", "0"],
        ["--drop-confirmed-round", "8"],
        ["--drop-confirmed-round", "1"],
    ],
)
def test_bad_fault_flags_exit_2(flags, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, "f": 18}))
    assert cli.main(["run", "--config", str(path), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command, flag", [("run", "--report"), ("verify", "--report"), ("scale", "--csv")]
)
def test_unwritable_output_exits_2_before_running(
    command, flag, config_path, tmp_path, monkeypatch, capsys
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("simulated before the output was opened")

    monkeypatch.setattr(cli.Simulation, "run", must_not_run)
    monkeypatch.setattr(cli, "scale_experiment", must_not_run)
    missing = tmp_path / "missing" / "out"
    argv = [command, "--config", config_path, flag, str(missing)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


@pytest.mark.parametrize(
    "config, env_seed, argv",
    [
        ([BASE_CONFIG], None, ["run"]),  # a JSON array, not an object
        (BASE_CONFIG, "x", ["run"]),
        (BASE_CONFIG, None, ["run", "--rounds", "0"]),
        (BASE_CONFIG, None, ["scale", "--alphas", "a"]),
        (BASE_CONFIG, None, ["scale", "--alphas", ","]),
        # sized after doubling, but n_c does not divide f
        ({**BASE_CONFIG, "n_c": 3, "leaf_count": 8}, None, ["scale", "--alphas", "1"]),
    ],
)
def test_config_errors_exit_2_before_running(
    config, env_seed, argv, tmp_path, monkeypatch, capsys, sims
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if env_seed is not None:
        monkeypatch.setenv(cli.SEED_ENV, env_seed)
    command, *flags = argv
    assert cli.main([command, "--config", str(path), *flags]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert sims == []


def test_seed_env_overrides_flag(config_path, monkeypatch, capsys):
    cli.main(["run", "--config", config_path, "--seed", "3"])
    with_flag = capsys.readouterr().out
    monkeypatch.setenv(cli.SEED_ENV, "99")
    cli.main(["run", "--config", config_path, "--seed", "3"])
    with_env = capsys.readouterr().out
    monkeypatch.delenv(cli.SEED_ENV)
    cli.main(["run", "--config", config_path, "--seed", "99"])
    flag_99 = capsys.readouterr().out
    assert with_env != with_flag
    assert with_env == flag_99


def test_verify_audits_proofs(config_path, capsys):
    assert cli.main(["verify", "--config", config_path]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    summary = json.loads(out_lines[-1])["summary"]
    assert summary["audit"]["checked"] > 0
    assert summary["audit"]["failed"] == 0


def test_failed_audit_ends_the_run(tmp_path, monkeypatch, capsys):
    # right after storage 3/0 applies block 6, the leaf-level digest of one of
    # its kept tail records is zeroed, so the audit of block 6 fails there
    apply = StorageNode.apply_confirmed
    corrupted = []

    def corrupt(node, txs, frontier, block):
        apply(node, txs, frontier, block)
        if (node.portion, node.replica, block.height) == (3, 0, 6):
            nodes = node.tree._nodes
            key = next(key for key, record in nodes.items() if len(record) > 32)
            nodes[key] = nodes[key][:8] + bytes(32) + nodes[key][40:]
            corrupted.append(int.from_bytes(nodes[key][:8], "big"))

    monkeypatch.setattr(StorageNode, "apply_confirmed", corrupt)
    path = tmp_path / "acceptance.json"
    path.write_text(json.dumps(ACCEPTANCE_CONFIG))
    report = tmp_path / "report.jsonl"
    code = cli.main(
        ["verify", "--config", str(path), "--rounds", "12", "--report", str(report)]
    )
    assert code == 3
    lines = report.read_text().splitlines()
    summary = json.loads(lines[-1])["summary"]
    (account,) = corrupted
    assert summary["fatal"] == (
        "storage divergence: storage 3/0: audit of block 6: "
        f"kept digest at (0, {account}) differs from the rebuild"
    )
    assert summary["rounds_run"] == len(lines) - 1 == 6
    assert summary["audit"]["failed"] == 0
    err = capsys.readouterr().err
    assert f"fatal={summary['fatal']}" in err and "audit_failed=" not in err


def test_scale_csv(tmp_path, capsys):
    config = dict(
        BASE_CONFIG,
        address_bits=16,
        f=64,
        n_c=2,
        leaf_count=8,
        j=1023,
        e=32,
        rho=1,
        rounds=6,
        initial_accounts=1024,
    )
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(config))
    out_csv = tmp_path / "scale.csv"
    code = cli.main(
        ["scale", "--config", str(path), "--alphas", "1,2", "--csv", str(out_csv)]
    )
    assert code == 0
    with out_csv.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [row["alpha"] for row in rows] == ["1", "2"]
    assert all(row["verdict"] == "well-provisioned" for row in rows)
    assert list(rows[0]) == cli.SCALE_COLUMNS


def test_scale_truncated_workload_exits_4(tmp_path, capsys):
    # 48 funded accounts cannot supply 32 sources to each of 2 committees, so
    # the run carries less than its stated load and proves nothing about it
    config = dict(
        BASE_CONFIG,
        address_bits=16,
        f=64,
        n_c=2,
        leaf_count=8,
        j=1023,
        e=32,
        rounds=4,
        initial_accounts=48,
    )
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(config))
    out_csv = tmp_path / "scale.csv"
    argv = ["scale", "--config", str(path), "--alphas", "1", "--csv", str(out_csv)]
    assert cli.main(argv) == 4
    with out_csv.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [row["verdict"] for row in rows] == ["truncated"]
    assert list(rows[0]) == cli.SCALE_COLUMNS
    assert capsys.readouterr().err.rstrip().endswith(" truncated")


def test_scale_overload_exits_4(tmp_path, capsys):
    # a 2-hash budget forces a deep fold tree yet bounds per-round hashing so
    # tightly that doubled traffic cannot stay inside it
    config = dict(
        BASE_CONFIG,
        address_bits=14,
        f=8,
        n_c=2,
        leaf_count=8,
        j=2,
        e=4,
        rounds=6,
        initial_accounts=256,
    )
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(config))
    code = cli.main(["scale", "--config", str(path), "--alphas", "1,4"])
    assert code == 4
    out = capsys.readouterr().out
    assert "overloaded" in out

"""Acceptance battery: ten pass/fail checks covering correctness, latency,
expiry, dimensioning, proportional scaling, determinism, and confluence.

Every check prints one PASS/FAIL line so a tee'd pytest log doubles as the
acceptance record.
"""

import hashlib
import random
import time
from dataclasses import replace

import pytest

from pipechain import oracle
from pipechain.engine import SimConfig, Simulation, report_lines
from pipechain.merkle import build_pruned
from pipechain.pipeline import build_topology
from pipechain.provisioning import (
    provision_after_doubling,
    provision_minimal,
    scale_experiment,
)
from reference import full_tree_root, shuffle_inboxes

ACCEPTANCE_CONFIG = SimConfig(
    seed=1,
    address_bits=16,
    f=50,
    n_c=4,
    leaf_count=8,
    j=7,
    e=13,
    rho=1,
    rounds=200,
    initial_accounts=256,
    initial_balance=1_000_000,
)

SCALE_BASE = SimConfig(
    seed=42,
    address_bits=16,
    f=64,
    n_c=2,
    leaf_count=8,
    j=1023,
    e=32,
    rho=1,
    rounds=40,
    initial_accounts=1024,
    initial_balance=1_000_000,
)


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def default_runs():
    """Each seed's run, its wall time and the rounds check_interleavings
    judged in it."""
    runs = {}
    check = oracle.check_interleavings
    for seed in (1, 2, 3):
        checked = []

        def spy(balances, per_committee, round_index):
            checked.append(round_index)
            return check(balances, per_committee, round_index)

        cfg = replace(ACCEPTANCE_CONFIG, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "check_interleavings", spy)
            start = time.perf_counter()
            result = Simulation(cfg).run()
            runs[seed] = (result, time.perf_counter() - start, checked)
    return runs


@pytest.fixture(scope="module")
def verify_run():
    return Simulation(ACCEPTANCE_CONFIG, audit_proofs=True).run()


@pytest.fixture(scope="module")
def scale_runs():
    start = time.perf_counter()
    runs = scale_experiment(SCALE_BASE, [1, 2, 4, 8])
    return runs, time.perf_counter() - start


def test_criterion_01_oracle_equivalence(default_runs, capsys):
    blocks = matches = 0
    slowest = 0.0
    for result, elapsed, _ in default_runs.values():
        blocks += len(result.reports)
        matches += sum(1 for row in result.reports if row["oracle"] == "match")
        slowest = max(slowest, elapsed)
    ok = blocks == matches == 3 * 200 and slowest < 60.0
    _verdict(
        capsys,
        1,
        ok,
        f"{matches}/{blocks} blocks byte-equal to oracle root over 3 seeds, "
        f"slowest seed {slowest:.1f}s (target 60s)",
    )


def test_criterion_02_non_negativity_and_conservation(default_runs, capsys):
    ok = True
    for result, _, _ in default_runs.values():
        supplies = {row["supply"] for row in result.reports}
        initial = result.summary["supply"]["initial"]
        ok = ok and result.summary["fatal"] is None
        ok = ok and supplies == {initial}
    _verdict(
        capsys,
        2,
        ok,
        "zero non-negativity violations, supply constant every round, 3 seeds",
    )


def test_criterion_03_storage_proofs_verify(verify_run, capsys):
    audit = verify_run.summary["audit"]
    per_round_ok = all(
        row["audit"]["checked"] > 0 and row["audit"]["failed"] == 0
        for row in verify_run.reports[1:]
    )
    ok = verify_run.ok and audit["checked"] > 0 and audit["failed"] == 0 and per_round_ok
    _verdict(
        capsys,
        3,
        ok,
        f"{audit['checked']}/{audit['checked']} served proofs verified "
        "against the newest block",
    )


def test_criterion_04_latency_law(default_runs, capsys):
    checked = violations = accepted = 0
    for result, _, _ in default_runs.values():
        latency = result.summary["latency"]
        checked += latency["checked"]
        violations += latency["violations"]
        accepted += result.summary["accepted_total"]
    # the final stages-1 entry rounds emit past the horizon and cannot be checked
    ok = checked > 0.95 * accepted and violations == 0
    _verdict(
        capsys,
        4,
        ok,
        f"{checked - violations}/{checked} accepted transactions included at "
        "entry_round + q - 1",
    )


def test_criterion_05_proof_expiry(capsys):
    cfg = replace(ACCEPTANCE_CONFIG, rounds=30)
    result = Simulation(cfg, expired_injection_rate=3).run()
    injected = result.summary["injected"]
    ok = (
        result.ok
        and injected["count"] > 0
        and injected["outcomes"] == {"expired_proof": injected["count"]}
    )
    _verdict(
        capsys,
        5,
        ok,
        f"{injected['outcomes'].get('expired_proof', 0)}/{injected['count']} "
        "stale-proof transactions discarded at the syntactic step",
    )


# (m, e, j) -> (leaf_rpcs, inner_rpcs), hand-computed:
# leaf = smallest power of two with leaf*e >= m, inner = ceil((leaf-1)/j_hat),
# j_hat = 2**floor(log2(j+1)) - 1. Covers j in {1, 7, 8, 15} and m/e one
# either side of a power of two.
MINIMAL_TABLE = [
    ((1, 1, 1), (1, 0)),
    ((2, 1, 1), (2, 1)),
    ((3, 1, 1), (4, 3)),
    ((4, 1, 1), (4, 3)),
    ((5, 1, 1), (8, 7)),
    ((7, 2, 7), (4, 1)),
    ((8, 2, 7), (4, 1)),
    ((9, 2, 7), (8, 1)),
    ((15, 1, 7), (16, 3)),
    ((16, 1, 7), (16, 3)),
    ((17, 1, 7), (32, 5)),
    ((63, 1, 8), (64, 9)),
    ((64, 1, 8), (64, 9)),
    ((65, 1, 8), (128, 19)),
    ((15, 1, 15), (16, 1)),
    ((16, 1, 15), (16, 1)),
    ((17, 1, 15), (32, 3)),
    ((255, 8, 15), (32, 3)),
    ((256, 8, 15), (32, 3)),
    ((257, 8, 15), (64, 5)),
    ((100, 13, 7), (8, 1)),
    ((1000, 10, 1), (128, 127)),
]

# (m, e, j) -> (leaf_rpcs, inner_rpcs) after a doubling step: leaf = 2m/e
# (half-loaded), inner = ceil((leaf-1)/j_hat) as above, the committees a run
# of that many leaves builds.
DOUBLED_TABLE = [
    ((64, 32, 7), (4, 1)),
    ((128, 32, 1023), (8, 1)),
    ((16, 4, 7), (8, 1)),
    ((64, 1, 1), (128, 127)),
    ((8, 8, 15), (2, 1)),
    ((256, 16, 8), (32, 5)),
]


def test_criterion_06_dimensioning_formulas(capsys):
    failures = []
    for provision, table in (
        (provision_minimal, MINIMAL_TABLE),
        (provision_after_doubling, DOUBLED_TABLE),
    ):
        for (m, e, j), expected in table:
            leaf = provision(m, e)
            got = (leaf, build_topology(leaf, j, leaf.bit_length()).inner_count)
            if got != expected:
                failures.append((m, e, j, got, expected))
    total = len(MINIMAL_TABLE) + len(DOUBLED_TABLE)
    ok = not failures and total >= 20
    _verdict(
        capsys,
        6,
        ok,
        f"{total - len(failures)}/{total} hand-computed (m, e, j) triples match"
        + (f", first failure {failures[0]}" if failures else ""),
    )


def test_criterion_07_scalability(scale_runs, capsys):
    runs, elapsed = scale_runs
    peaks = [run.summary["peaks"] for run in runs]
    base_msgs = peaks[0]["committee_msgs"]
    all_well = all(run.well_provisioned for run in runs)
    hashes_peak = max(p["rpc_hashes"] for p in peaks)
    hashes_ok = all(p["rpc_hashes"] <= run.summary["config"]["j"] for p, run in zip(peaks, runs))
    msgs_peak = max(p["committee_msgs"] for p in peaks)
    msgs_ok = msgs_peak <= 2 * base_msgs
    bytes_ok = len({run.summary["block_bytes"] for run in runs}) == 1
    ok = all_well and hashes_ok and msgs_ok and bytes_ok and elapsed < 300.0
    _verdict(
        capsys,
        7,
        ok,
        "alpha 1,2,4,8 all well-provisioned; peak hashes "
        f"{hashes_peak} <= j={SCALE_BASE.j}; "
        f"peak msgs {msgs_peak} <= 2x base {base_msgs}; block bytes constant; "
        f"{elapsed:.1f}s (target 300s)",
    )


def test_scale_truncated_run_is_not_well_provisioned():
    # 1,024 accounts cannot supply 32 sources to each of 32 committees every
    # round: 4 of the 8 rounds carry less than the stated load
    (run,) = scale_experiment(replace(SCALE_BASE, rounds=8), [16])
    assert run.verdict == "truncated"
    assert not run.well_provisioned


def test_criterion_08_determinism(default_runs, capsys, tmp_path):
    first, _, _ = default_runs[1]
    second = Simulation(ACCEPTANCE_CONFIG).run()
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    path_a.write_text("".join(line + "\n" for line in report_lines(first)))
    path_b.write_text("".join(line + "\n" for line in report_lines(second)))
    ok = path_a.read_bytes() == path_b.read_bytes()
    _verdict(
        capsys,
        8,
        ok,
        f"equal-seed report files byte-identical ({path_a.stat().st_size} bytes)",
    )


@pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "shuffled"])
def test_acceptance_report_bytes_pinned(default_runs, shuffled, monkeypatch):
    # the acceptance run's report bytes, as `pipechain run --report` writes
    # them; the same when every inbox arrives in a seeded random order
    result, _, _ = default_runs[1]
    if shuffled:
        shuffle_inboxes(monkeypatch)
        result = Simulation(ACCEPTANCE_CONFIG).run()
    data = "".join(line + "\n" for line in report_lines(result)).encode()
    assert hashlib.sha256(data).hexdigest() == (
        "44fbaf40d7c276204a30b349d973eb213e733e81a4effdaf6bb37e3bd365c2a8"
    )


def test_oracle_matches_at_widest_address_space():
    # the oracle's memory follows the accounts touched, so A=40 runs with it on
    result = Simulation(replace(ACCEPTANCE_CONFIG, address_bits=40, rounds=10)).run()
    assert result.ok
    assert result.summary["oracle"] == {"enabled": True, "matches": 10}


def test_criterion_09_interleave_independence(default_runs, capsys):
    # every round checks the exact bound: no order-respecting interleaving
    # of the committees' sequences overdraws, so every one that applies
    # reproduces the oracle root (tests/test_oracle.py, against brute force)
    rounds = list(range(1, ACCEPTANCE_CONFIG.rounds + 1))
    ok = all(result.ok and checked == rounds for result, _, checked in default_runs.values())
    total = sum(len(checked) for _, _, checked in default_runs.values())
    _verdict(
        capsys,
        9,
        ok,
        f"{total}/{3 * len(rounds)} rounds over 3 seeds: no order-respecting "
        "interleaving overdraws (exact bound)",
    )


def test_criterion_10_merkle_confluence(capsys):
    rng = random.Random(1012)
    mismatches = 0
    trials = 1000
    for _ in range(trials):
        bits = rng.randint(4, 10)
        count = rng.randint(0, min(64, 1 << bits))
        accounts = rng.sample(range(1 << bits), count)
        balances = {acct: rng.randrange(1 << 64) for acct in accounts}
        entries = dict(balances)
        if entries and rng.random() < 0.3:
            entries[rng.choice(accounts)] = 0  # zero entries fold to defaults
            balances = {a: b for a, b in entries.items() if b}
        pruned = build_pruned(entries.items(), bits).root_hash()
        if pruned != full_tree_root(balances, bits):
            mismatches += 1
    ok = mismatches == 0
    _verdict(
        capsys,
        10,
        ok,
        f"{trials - mismatches}/{trials} random entry sets: pruned root equals "
        "full-tree root",
    )

"""End-to-end engine runs: oracle agreement, conservation, determinism."""

import ast
import dataclasses
import gc
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipechain
from pipechain import merkle, oracle, pipeline
from pipechain.engine import FATAL_VERDICTS, SimConfig, Simulation, report_lines
from pipechain.ledger import Batch, Transaction, Transfer
from pipechain.merkle import BalanceProof, build_pruned
from pipechain.storage import StorageNode
from reference import full_tree_root, meter_identity_failures, shuffle_inboxes


def _config(**overrides):
    params = dict(
        seed=7,
        address_bits=12,
        f=16,
        n_c=4,
        leaf_count=4,
        j=7,
        e=8,
        rho=1,
        rounds=12,
        initial_accounts=64,
        initial_balance=1000,
    )
    params.update(overrides)
    return SimConfig(**params)


def test_config_mapping_roundtrip():
    cfg = _config()
    assert SimConfig.from_mapping(cfg.to_json_dict()) == cfg


def test_config_rejects_unknown_keys():
    data = _config().to_json_dict()
    data["topology"] = "star"
    with pytest.raises(ValueError, match="unknown config keys: topology"):
        SimConfig.from_mapping(data)


def test_config_rejects_bad_types_and_values():
    base = _config().to_json_dict()
    with pytest.raises(ValueError):
        SimConfig.from_mapping({**base, "f": "many"})
    with pytest.raises(ValueError):
        SimConfig.from_mapping({**base, "f": True})
    with pytest.raises(ValueError):
        SimConfig.from_mapping({**base, "oracle_enabled": 1})
    with pytest.raises(ValueError):
        SimConfig.from_mapping({**base, "leaf_count": 3})
    with pytest.raises(ValueError):
        SimConfig.from_mapping({**base, "rounds": 0})
    with pytest.raises(ValueError):
        # no address bits left for the portion subtrees
        SimConfig.from_mapping({**base, "address_bits": 2})
    for bits in (0, 41):
        with pytest.raises(ValueError, match="address_bits out of range"):
            SimConfig.from_mapping({**base, "address_bits": bits})
    with pytest.raises(ValueError, match="initial_accounts exceeds"):
        SimConfig.from_mapping(
            {**base, "address_bits": 4, "f": 2, "n_c": 1, "leaf_count": 2,
             "initial_accounts": 17}
        )
    with pytest.raises(ValueError, match="2 \\* f"):
        # 2f fresh addresses per round cannot fit in 2**3
        SimConfig.from_mapping(
            {**base, "address_bits": 3, "f": 8, "n_c": 1, "leaf_count": 1,
             "initial_accounts": 8}
        )
    with pytest.raises(ValueError, match="total supply"):
        # balances hash as 8-byte fields
        SimConfig.from_mapping({**base, "initial_accounts": 1, "initial_balance": 2**64})
    with pytest.raises(ValueError, match="total supply"):
        # each balance fits, but one account can come to hold all four
        SimConfig.from_mapping(
            {**base, "address_bits": 3, "f": 2, "n_c": 1, "leaf_count": 2,
             "initial_accounts": 4, "initial_balance": 2**63, "rounds": 200}
        )
    # a config built through the library gets the same type checks
    for bad in (dict(f=2.5), dict(rounds=3.0), dict(rho=1.5), dict(seed="x"),
                dict(n_c=True), dict(oracle_enabled=1)):
        with pytest.raises(ValueError):
            _config(**bad).validated()
        with pytest.raises(ValueError):
            Simulation(_config(**bad))
    # and so do Simulation's fault options
    for bad in (dict(drop_confirmed_round=4.5), dict(drop_confirmed_round=True),
                dict(expired_injection_rate=1.5), dict(expired_injection_rate=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            Simulation(_config(), **bad)
    # and its flags: a truthy non-bool such as "no" would switch a flag on
    for bad in (dict(audit_proofs="no"), dict(audit_proofs=1), dict(audit_proofs=None),
                dict(balanced_workload="no"), dict(balanced_workload=0)):
        with pytest.raises(ValueError, match="must be a boolean"):
            Simulation(_config(), **bad)


def test_genesis_agrees_with_brute_force():
    cfg = _config(address_bits=10, initial_accounts=32)
    sim = Simulation(cfg)
    stride = (1 << 10) // 32
    balances = {i * stride: 1000 for i in range(32)}
    assert sim.genesis_block.state_root == full_tree_root(balances, 10)
    assert sim.genesis_block.height == 0
    assert sim.latest_block is sim.genesis_block


@pytest.mark.parametrize("oracle_enabled, digests", [(False, 71), (True, 126)])
def test_genesis_is_hashed_once_per_independent_party(monkeypatch, oracle_enabled, digests):
    # Stride 32 puts two accounts in each of the 4 portions.  Each leaf
    # committee makes 2 leaf and 11 node digests (two 5-level tails and its
    # portion's root) and the pipeline's genesis fold 3 more; each of the 8
    # storage replicas starts from a copy of its leaf's tree and hashes only
    # the 2 nodes above its portion.  The oracle hashes the whole tree on its
    # own: 8 leaf and 47 node digests.  Rebuilding genesis anywhere else
    # (the whole space, or a replica's portion) adds 55 or 13 a replica.
    cfg = SimConfig(address_bits=8, f=2, n_c=1, leaf_count=4, rho=2, rounds=4,
                    initial_accounts=8, initial_balance=5, oracle_enabled=oracle_enabled)
    made = [0]

    def counting(fn):
        def wrapper(first, second):
            made[0] += 1
            return fn(first, second)

        return wrapper

    for module in (merkle, pipeline, oracle):
        for name in ("node_hash", "leaf_hash"):
            if name in vars(module):
                monkeypatch.setattr(module, name, counting(vars(module)[name]))
    sim = Simulation(cfg)
    monkeypatch.undo()
    assert made[0] == digests
    # the agreement the set-up no longer checks: the pipeline's genesis fold
    # is the root of the whole-space tree
    entries = [(32 * i, 5) for i in range(8)]
    assert sim.genesis_block.state_root == build_pruned(entries, 8).root_hash()
    assert sim.genesis_block.state_root == full_tree_root(dict(entries), 8)


def test_run_matches_oracle_every_round():
    result = Simulation(_config()).run()
    assert result.ok
    summary = result.summary
    assert summary["oracle"] == {"enabled": True, "matches": 12}
    assert summary["fatal"] is None
    assert summary["accepted_total"] > 0
    assert all(row["oracle"] == "match" for row in result.reports)


def _cc_accepted(row) -> int:
    """Transfers the confirmation committees accepted in one report row."""
    return sum(e["accepted"] for e in row["per_committee"] if e["id"].startswith("cc-"))


def test_supply_conserved_and_latency_exact():
    sim = Simulation(_config(rounds=20))
    result = sim.run()
    supply = result.summary["supply"]
    assert supply["min"] == supply["max"] == supply["initial"]
    latency = result.summary["latency"]
    assert latency["violations"] == 0
    # round r accepts entry round r; blocks for the last stages-1 entry
    # rounds emit after the run ends
    settled = sum(
        _cc_accepted(row)
        for row in result.reports
        if row["round"] + sim.topology.stages - 1 <= 20
    )
    assert latency["checked"] == settled > 0


def test_deterministic_reports():
    lines_a = list(report_lines(Simulation(_config()).run()))
    lines_b = list(report_lines(Simulation(_config()).run()))
    assert lines_a == lines_b
    lines_c = list(report_lines(Simulation(_config(seed=8)).run()))
    assert lines_a != lines_c
    for line in lines_a:
        json.loads(line)  # every line is standalone JSON


@st.composite
def _small_runs(draw):
    """A valid SimConfig of at most 8 leaves, 8 sources and 8 rounds, with
    every RunOptions field drawn."""
    a = draw(st.integers(2, 10))
    cap = min(8, 1 << (a - 1))
    f, n_c = draw(st.integers(1, cap)), draw(st.integers(1, 4))
    leaf_count = 1 << draw(st.integers(0, cap.bit_length() - 1))
    j, rounds = draw(st.sampled_from((1, 3, 7))), draw(st.integers(1, 8))
    cfg = SimConfig(
        seed=draw(st.integers(0, 2**16)),
        address_bits=a,
        f=f,
        n_c=n_c,
        leaf_count=leaf_count,
        j=j,
        e=draw(st.integers(1, 16)),
        rho=draw(st.integers(1, 2)),
        rounds=rounds,
        initial_accounts=draw(st.integers(1, min(32, 1 << a))),
        initial_balance=draw(st.integers(1, 1000)),
        oracle_enabled=draw(st.booleans()),
    )
    drops = range(2, rounds - pipeline.build_topology(leaf_count, j, a).stages + 1)
    options = dict(
        balanced_workload=not f % n_c and draw(st.booleans()),
        audit_proofs=draw(st.booleans()),
        expired_injection_rate=draw(st.integers(0, 3)),
        drop_confirmed_round=draw(st.none() | st.sampled_from(drops)) if drops else None,
    )
    return cfg, options


@settings(max_examples=200, deadline=None)
@given(_small_runs())
def test_every_small_run_ends_ok_or_named_and_replays(run):
    cfg, options = run
    result = Simulation(cfg, **options).run()
    summary, fatal = result.summary, result.summary["fatal"]
    named = tuple(f"{prefix}: " for prefix in FATAL_VERDICTS.values())
    assert fatal is None or fatal.startswith(named + ("oracle divergence at height ",))
    assert summary["rounds_run"] == len(result.reports)
    assert not result.ok or len(result.reports) == cfg.rounds
    # only the drop fault can end a run early
    assert result.ok or options["drop_confirmed_round"] is not None
    # every served proof verifies: no fault option makes a wrong one
    assert "bad_proof" not in summary["discard_reasons"]
    _assert_totals_fold_the_rows(result)
    # criterion 8 beyond the acceptance config
    again = Simulation(cfg, **options).run()
    assert list(report_lines(again)) == list(report_lines(result))


def test_report_rows_shape():
    result = Simulation(_config()).run()
    row = result.reports[0]
    assert set(row) == {
        "round",
        "block_height",
        "state_root",
        "oracle",
        "supply",
        "backlog",
        "audit",
        "truncated",
        "per_committee",
    }
    ids = [entry["id"] for entry in row["per_committee"]]
    assert ids == sorted(ids, key=ids.index)  # stable, fixed order
    assert ids[0] == "cc-0"
    assert any(entry.startswith("leaf-") for entry in ids)
    assert any(entry.startswith("storage-") for entry in ids)
    heights = [r["block_height"] for r in result.reports]
    assert heights == list(range(1, 13))


def test_block_stream_is_linked():
    sim = Simulation(_config(rounds=6))
    result = sim.run()
    assert result.summary["block_bytes"] == 72
    # replay the hash chain from the reports
    roots = [bytes.fromhex(row["state_root"]) for row in result.reports]
    from pipechain.ledger import Block, block_hash

    prev = sim.genesis_block
    for height, root in enumerate(roots, start=1):
        block = Block(height, block_hash(prev), root)
        prev = block
    assert sim.latest_block == prev


def test_pipeline_warmup_commits_genesis():
    sim = Simulation(_config())
    result = sim.run()
    # blocks 1..stages-1 re-commit genesis: their entry rounds predate traffic
    stages, genesis = sim.topology.stages, sim.genesis_block.state_root.hex()
    for row in result.reports[: stages - 1]:
        assert row["state_root"] == genesis
    assert result.reports[stages]["state_root"] != genesis


def test_balanced_workload_fills_every_committee():
    result = Simulation(_config(rounds=8), balanced_workload=True).run()
    for row in result.reports[2:]:  # first entry round lands in round 2
        cc_rows = [r for r in row["per_committee"] if r["id"].startswith("cc-")]
        assert [r["processed"] for r in cc_rows] == [4, 4, 4, 4]
    assert result.summary["peaks"]["cc_tx"] == 4


def test_audit_mode_checks_everything():
    result = Simulation(_config(rounds=8), audit_proofs=True).run()
    audit = result.summary["audit"]
    assert audit["failed"] == 0
    assert audit["checked"] > 0
    for row in result.reports[1:]:
        assert row["audit"]["checked"] > 0


def test_expired_injection_all_discarded():
    rate, rounds = 2, 14
    result = Simulation(
        _config(rounds=rounds), expired_injection_rate=rate
    ).run()
    injected = result.summary["injected"]
    assert injected["count"] == rate * (rounds - 5)
    assert injected["outcomes"] == {"expired_proof": injected["count"]}
    assert result.ok


def test_drop_fault_diverges_at_emission():
    drop_round = 5
    sim = Simulation(_config(), drop_confirmed_round=drop_round)
    result = sim.run()
    assert not result.ok
    expected_height = drop_round + sim.topology.stages - 1
    assert result.summary["fatal"] == f"oracle divergence at height {expected_height}"
    assert result.reports[-1]["oracle"] == "mismatch"
    assert all(row["oracle"] == "match" for row in result.reports[:-1])
    # the diverged block carries entry round 5: its transfers broke the law
    dropped_entry = _cc_accepted(result.reports[drop_round - 1])
    assert result.summary["latency"]["violations"] == dropped_entry > 0


def test_drop_fault_with_nothing_to_drop_is_reported_idle():
    # one account holding 1: its single transfer is accepted in round 2 and
    # the account is empty until that settles, so round 3 accepts nothing
    cfg = SimConfig(address_bits=8, f=1, n_c=1, leaf_count=2, rounds=10,
                    initial_accounts=1, initial_balance=1)
    result = Simulation(cfg, drop_confirmed_round=3).run()
    assert _cc_accepted(result.reports[2]) == 0
    assert result.ok
    assert result.summary["idle_faults"] == ["drop_confirmed_round"]
    # a drop with a transfer to lose diverges; neither it nor a healthy run has the key
    lossy = Simulation(cfg, drop_confirmed_round=2).run()
    assert not lossy.ok
    assert "idle_faults" not in lossy.summary
    assert "idle_faults" not in Simulation(cfg).run().summary


def test_expired_injection_with_too_few_rounds_is_reported_idle():
    # stale proofs are served from round 3 and injected two rounds later
    for rounds in (4, 5):
        result = Simulation(_config(rounds=rounds), expired_injection_rate=2).run()
        assert result.ok
        assert result.summary["injected"]["count"] == 0
        assert result.summary["idle_faults"] == ["expired_injection_rate"]
    result = Simulation(_config(rounds=6), expired_injection_rate=2).run()
    assert result.summary["injected"]["count"] > 0
    assert "idle_faults" not in result.summary
    assert "idle_faults" not in Simulation(_config(rounds=4)).run().summary


def _spend_a_same_round_credit(sim):
    """In round 10 committee 1 also spends, to an account that held 0, a
    credit that committee 0 accepted in the same round; returns committee
    0's round-10 transfers to accounts that held 0, the credit first."""
    first, second = sim.ccs[0], sim.ccs[1]
    confirm_first, confirm_second = first.confirm_round, second.confirm_round
    credits = []  # committee 0's round-10 transfers to accounts that held 0

    def crediting(incoming, round_index, history):
        accepted, discards, stats = confirm_first(incoming, round_index, history)
        if round_index == 10:
            credits.extend(tx for tx in accepted if sim.oracle.balance(tx.dst) == 0)
        return accepted, discards, stats

    def spending(incoming, round_index, history):
        accepted, discards, stats = confirm_second(incoming, round_index, history)
        if round_index == 10:
            credit, payee = credits[0], credits[1]
            accepted += (
                Transaction(credit.dst, payee.dst, credit.amount, 10, 0,
                            credit.dst_proof, payee.dst_proof),
            )
        return accepted, discards, stats

    first.confirm_round, second.confirm_round = crediting, spending
    return credits


def test_a_same_round_credit_spent_by_another_committee_is_fatal():
    # Replayed in committee order the cheat's round never overdraws, so the
    # roots alone would let the run end ok; yet the committees run
    # concurrently, and the interleaving that runs committee 1's spend first
    # overdraws.  The bound ends the run there.
    sim = Simulation(SimConfig(rounds=30))  # the acceptance config, seed 1
    credits = _spend_a_same_round_credit(sim)
    result = sim.run()
    assert result.summary["rounds_run"] == 9
    assert result.summary["fatal"] == (
        "non-negativity violation: round 10: an interleaving of the committees' "
        f"sequences overdraws account {credits[0].dst} "
        f"(balance 0, floor -{credits[0].amount} = committee 1 -{credits[0].amount})"
    )


def _overdraw_in_leaf_0(sim):
    """Leaf 0's sixth batch debits one of its sources 10**12 more than it
    holds, so the leaf cannot apply it: a pipeline fault in round 6."""
    leaf = sim.leaf_rpcs[0]
    process, calls = leaf.process_round, []

    def overdrawing(incoming):
        calls.append(1)
        if len(calls) == 6:
            i = next(i for i, tx in enumerate(incoming) if leaf.tree.covers(tx.src))
            raised = dataclasses.replace(incoming[i], amount=incoming[i].amount + 10**12)
            incoming = incoming[:i] + [raised] + incoming[i + 1 :]
        return process(incoming)

    leaf.process_round = overdrawing


def _assert_totals_fold_the_rows(result):
    """Every summary total that a report row also holds is the fold of that
    field over the reported rows, and the rows' meters keep their identities."""
    reports, summary = result.reports, result.summary
    cfg = summary["config"]
    topo = pipeline.build_topology(cfg["leaf_count"], cfg["j"], cfg["address_bits"])
    child_counts = [tier.child_count for tier in topo.tiers]
    failures = meter_identity_failures(reports, topo.stages, child_counts, cfg["address_bits"])
    assert failures == []
    entries = [entry for row in reports for entry in row["per_committee"]]
    cc = [entry for entry in entries if entry["id"].startswith("cc-")]
    rpc = [entry for entry in entries if entry["id"].startswith(("leaf-", "inner-"))]
    supplies = [row["supply"] for row in reports if row["supply"] is not None]
    initial = summary["supply"]["initial"]
    verdicts = [row["oracle"] for row in reports]
    assert summary["rounds_run"] == len(reports)
    assert summary["received_total"] == sum(entry["processed"] for entry in cc)
    assert summary["accepted_total"] == sum(entry["accepted"] for entry in cc)
    assert summary["workload_truncated_rounds"] == sum(row["truncated"] for row in reports)
    assert summary["audit"] == {
        key: sum(row["audit"][key] for row in reports) for key in ("checked", "failed")
    }
    assert summary["supply"] == {
        "initial": initial,
        "min": min(supplies, default=initial),
        "max": max(supplies, default=initial),
    }
    assert summary["oracle"]["matches"] == verdicts.count("match")
    diverged = str(summary["fatal"]).startswith("oracle divergence at height ")
    assert verdicts.count("mismatch") == diverged
    assert summary["peaks"] == {
        "cc_tx": max(entry["processed"] for entry in cc),
        "rpc_hashes": max(entry["hashes"] for entry in rpc),
        "committee_msgs": max(entry["msgs_in"] + entry["msgs_out"] for entry in entries),
        "backlog": max(row["backlog"] for row in reports),
    }


@pytest.mark.parametrize(
    "fault, fatal",
    [
        (None, None),
        (_spend_a_same_round_credit, "non-negativity violation: round 10: "),
        (_overdraw_in_leaf_0, "pipeline fault: leaf 0: negative balance"),
    ],
    ids=["ok", "cheat", "leaf-fault"],
)
def test_summary_totals_fold_the_reported_rows(fault, fatal):
    # A round that ends the run is not reported, so it adds to no total,
    # whichever stage raised: the totals a row holds fold the rows, and those
    # no row holds equal the same run cut to the rounds reported.  The
    # acceptance config with the proof audit and stale-proof injection on,
    # seed 1
    options = dict(audit_proofs=True, expired_injection_rate=2)
    sim = Simulation(SimConfig(rounds=14), **options)
    if fault is not None:
        fault(sim)
    result = sim.run()
    if fatal is None:
        assert result.ok
    else:
        assert result.summary["fatal"].startswith(fatal)
    _assert_totals_fold_the_rows(result)
    cut = Simulation(SimConfig(rounds=result.summary["rounds_run"]), **options).run()
    assert cut.ok
    for key in ("discard_reasons", "proof_disagreements", "conservative_rejections",
                "latency"):
        assert result.summary[key] == cut.summary[key], key
    assert result.summary["injected"]["outcomes"] == cut.summary["injected"]["outcomes"]


def test_a_failed_audit_names_the_stale_position(monkeypatch):
    # right after storage 1/0 applies block 6, one of its kept inner digests
    # is zeroed; the audit of that block ends the run naming the position
    apply = StorageNode.apply_confirmed
    corrupted = []

    def corrupt(node, txs, frontier, block):
        apply(node, txs, frontier, block)
        if (node.portion, node.replica, block.height) == (1, 0, 6):
            nodes, bits = node.tree._nodes, node.tree.address_bits
            key = next(key for key, record in nodes.items() if len(record) == 32)
            nodes[key] = bytes(32)
            level = bits + 1 - key.bit_length()
            corrupted.append((level, key - (1 << (bits - level))))

    monkeypatch.setattr(StorageNode, "apply_confirmed", corrupt)
    result = Simulation(SimConfig(rounds=12), audit_proofs=True).run()
    (position,) = corrupted
    assert result.summary["fatal"] == (
        "storage divergence: storage 1/0: audit of block 6: "
        f"kept digest at {position} differs from the rebuild"
    )
    _assert_totals_fold_the_rows(result)


def test_a_rejection_the_oracle_balance_covers_is_conservative():
    # an `insufficient` discard is conservative when the oracle's balance
    # before the round covers its amount, an equal amount included
    def run(extra):
        sim = Simulation(_config(rounds=4))
        confirm = sim.ccs[0].confirm_round

        def rejecting(incoming, round_index, history):
            accepted, discards, stats = confirm(incoming, round_index, history)
            if round_index == 3:
                balance = sim.oracle.balance(0)
                discards.append((Transaction(0, 1, balance + extra, 3, 0), "insufficient"))
            return accepted, discards, stats

        sim.ccs[0].confirm_round = rejecting
        result = sim.run()
        assert result.ok
        return result.summary["conservative_rejections"]

    baseline = Simulation(_config(rounds=4)).run().summary["conservative_rejections"]
    assert run(0) == baseline + 1
    assert run(1) == baseline


def test_supply_extremes_track_the_oracle_total():
    sim = Simulation(_config(rounds=6))
    initial = sim.oracle.total_supply()
    shifts = iter([0, 0, -1, 0, 1, 0])  # one total_supply call a round
    total_supply = sim.oracle.total_supply
    sim.oracle.total_supply = lambda: total_supply() + next(shifts)
    result = sim.run()
    assert [row["supply"] for row in result.reports] == [
        initial, initial, initial - 1, initial, initial + 1, initial
    ]
    assert result.summary["supply"] == {
        "initial": initial, "min": initial - 1, "max": initial + 1
    }


def test_a_simulation_runs_once():
    # the units keep their state, so a second run must not start over
    sim = Simulation(_config(rounds=6))
    result = sim.run()
    lines = list(report_lines(result))
    with pytest.raises(RuntimeError, match="runs once"):
        sim.run()
    assert list(report_lines(result)) == lines
    assert result.ok and result.summary["rounds_run"] == 6


def test_the_interleaving_bound_makes_no_oracle_digest(monkeypatch):
    # the bound reads balances alone: the oracle digests genesis and its
    # replays of the acceptance run, and nothing more
    calls = []
    node_hash = oracle.node_hash

    def counted(left, right):
        calls.append(1)
        return node_hash(left, right)

    monkeypatch.setattr(oracle, "node_hash", counted)
    # SimConfig's defaults are the acceptance config
    assert Simulation(SimConfig(rounds=30)).run().ok
    assert len(calls) == 27_381


def test_rho_replication_consistent():
    result = Simulation(_config(rho=3, rounds=8)).run()
    assert result.ok
    ids = [entry["id"] for entry in result.reports[0]["per_committee"]]
    assert sum(1 for i in ids if i.startswith("storage-")) == 4 * 3


def test_oracle_disabled_still_runs():
    result = Simulation(_config(oracle_enabled=False)).run()
    assert result.ok
    assert result.summary["oracle"]["enabled"] is False
    assert all(row["oracle"] == "n/a" for row in result.reports)
    assert all(row["supply"] is None for row in result.reports)


def test_summary_peaks_are_maxima():
    result = Simulation(_config()).run()
    peaks = result.summary["peaks"]
    msgs = hashes = 0
    for row in result.reports:
        for entry in row["per_committee"]:
            msgs = max(msgs, entry["msgs_in"] + entry["msgs_out"])
            if entry["id"].startswith(("leaf-", "inner-")):
                hashes = max(hashes, entry["hashes"])
    assert peaks["committee_msgs"] == msgs
    assert peaks["rpc_hashes"] == hashes


# pinned report hashes: a refactor that changes no behaviour keeps every one
GOLDEN_REPORTS = [
    # two inner tiers, storage replicas and the proof audit
    (
        dict(leaf_count=16, rho=2),
        dict(audit_proofs=True),
        "d2a6f546021ee2356e48ea2f34753cb5529c4769e292c7fb1b1e1cec7a289a13",
    ),
    # a single leaf committee emits the block, with the oracle off
    (
        dict(leaf_count=1, oracle_enabled=False),
        {},
        "2272ca56938559b562ff1091bfa3680823711943409c6fcb223f4f0b4205da68",
    ),
    # every non-fatal fault hook
    (
        {},
        dict(balanced_workload=True, expired_injection_rate=2),
        "3df7f4d347c00b1d930cfa988227c5baf2b650224132aac6bb17af9affbb8a95",
    ),
    # the fatal path
    (
        {},
        dict(drop_confirmed_round=5),
        "004aca6e65f453687744e413a4f260f91f6b78d4a5c87ca69cb47125058dc41f",
    ),
]


@pytest.mark.parametrize(
    "overrides, options, digest, shuffled",
    [
        pytest.param(*case, shuffled, id=name + "-shuffled" * shuffled)
        for shuffled in (False, True)
        for case, name in zip(
            GOLDEN_REPORTS, ["tiers-replicas-audit", "single-leaf", "faults", "fatal"]
        )
    ],
)
def test_report_bytes_pinned(overrides, options, digest, shuffled, monkeypatch):
    # the same bytes when every inbox arrives in a seeded random order
    if shuffled:
        shuffle_inboxes(monkeypatch)
    result = Simulation(_config(rounds=20, **overrides), **options).run()
    # the report bytes exactly as `pipechain run --report` writes them
    data = "".join(line + "\n" for line in report_lines(result)).encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_library_has_no_assert_statements():
    # python -O strips asserts, so no invariant of the library may be one
    found = []
    for path in sorted(Path(pipechain.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize(
    "overrides, options",
    [({}, {}), (dict(leaf_count=1), {}), (dict(rho=3), dict(audit_proofs=True))],
    ids=["steady", "single-leaf", "rho3-audit"],
)
def test_runtime_trees_hold_exactly_their_balances(overrides, options):
    # A tree holds every non-zero balance of its scope, and every absent
    # subtree is all-zero: after a run, each leaf committee's and storage
    # replica's tree has the root of a fresh scoped build of its own non-zero
    # leaves, so its content is its balances and nothing else.  With its
    # zero leaves too, the fresh build keeps exactly the tree's whole map:
    # grafts and drains leave the structure a build makes.  Small balances
    # make drains, and with them zero leaves, common.
    sim = Simulation(SimConfig(rounds=30, initial_balance=1000, **overrides), **options)
    assert sim.run().ok
    trees = [leaf.tree for leaf in sim.leaf_rpcs]
    trees += [node.tree for node in sim.storage.values()]
    assert len(trees) == (1 + sim.config.rho) * sim.config.leaf_count
    zeros = 0
    for tree in trees:
        scope = dict(root_level=tree.root_level, root_index=tree.root_index)
        funded = sorted((a, b) for a, b in tree.leaves.items() if b)
        fresh = build_pruned(funded, tree.address_bits, **scope)
        assert tree.root_hash() == fresh.root_hash()
        whole = build_pruned(tree.leaves.items(), tree.address_bits, **scope)
        assert whole._nodes == tree._nodes
        zeros += len(tree.leaves) - len(funded)
    assert zeros > 0  # drained sources stay as zero leaves


def test_storage_replicas_share_their_leaf_committees_records():
    # A storage replica replays its leaf committee's portion q - 1 rounds
    # later, so many of its records equal the leaf tree's at the same key:
    # it keeps the leaf's object for each of those instead of a second copy.
    # It cuts a tail only when it applies a transfer, after the leaf made
    # the same cut, so even a sliced tail record is the leaf's.
    sim = Simulation(SimConfig(rounds=30, seed=1))
    assert sim.run().ok
    equal = shared = 0
    for (portion, _), node in sim.storage.items():
        source = sim.leaf_rpcs[portion].tree._nodes
        for key, record in node.tree._nodes.items():
            if source.get(key) == record:
                equal += 1
                shared += record is source[key]
    assert shared == equal > 0


def test_storage_trees_hold_genesis_and_touched_accounts_only(monkeypatch):
    # Serving a zero balance keeps nothing, so a storage tree holds its
    # genesis accounts and the accounts a transfer it applied touched, each
    # with the balance a replay of those transfers gives.  A credit leaves
    # a balance positive, so every zero leaf is a source that a transfer
    # drained.  Small balances make drains common.
    applied = {}
    apply_confirmed = StorageNode.apply_confirmed

    def recording(node, txs, frontier, block):
        applied.setdefault((node.portion, node.replica), []).extend(txs)
        return apply_confirmed(node, txs, frontier, block)

    monkeypatch.setattr(StorageNode, "apply_confirmed", recording)
    sim = Simulation(SimConfig(rounds=30, rho=2, initial_balance=1000))
    genesis = {key: dict(node.tree.leaves) for key, node in sim.storage.items()}
    assert sim.run().ok
    zeros = 0
    for key, node in sim.storage.items():
        balances, drained, tree = genesis[key], set(), node.tree
        for tx in applied[key]:
            for account, amount in ((tx.src, -tx.amount), (tx.dst, tx.amount)):
                if tree.covers(account):
                    balances[account] = balances.get(account, 0) + amount
                    if balances[account] == 0:
                        drained.add(account)
        assert tree.leaves == balances
        held_zero = {account for account, balance in tree.leaves.items() if not balance}
        assert held_zero <= drained
        zeros += len(held_zero)
    assert zeros > 0


def test_leaf_trees_share_the_oracles_records():
    # The oracle replays each entry round one round before the leaf
    # committees apply it, over the same heap keys and record format, so
    # most leaf records equal the oracle's: a leaf tree keeps the oracle's
    # object for those, while it still computes them and folds its own root.
    # With the oracle off, no leaf tree has a source.
    sim = Simulation(SimConfig(rounds=30, seed=1))
    assert sim.run().ok
    heap, equal, shared = sim.oracle.heap, 0, 0
    for leaf in sim.leaf_rpcs:
        tree = leaf.tree
        assert tree.refold() == (tree.root_hash(), [])
        for key, record in tree._nodes.items():
            if heap.get(key) == record:
                equal += 1
                shared += record is heap[key]
    assert shared >= 0.95 * equal > 0
    sim = Simulation(SimConfig(rounds=30, seed=1, oracle_enabled=False))
    assert sim.run().ok
    assert not any(leaf.tree._source for leaf in sim.leaf_rpcs)


def test_a_proof_ends_at_the_leaf_graft():
    # Only the round that routes a transfer reads its proofs; the leaf
    # committees graft them the round after.  Whatever outlives that round
    # keeps only the Transfer (storage buffers, the entry rounds clients
    # settle) or integers (committee windows: each account's net change),
    # and each report entry is its round's meter.
    gc.collect()
    before = [obj for obj in gc.get_objects() if isinstance(obj, BalanceProof)]
    sim = Simulation(SimConfig(rounds=12))
    # the entry rounds held while the oracle runs are Transfers as well
    held = []
    oracle_stage = sim._oracle_stage

    def holding(round_index, confirmed, discards):
        held.extend(type(tx) for txs in sim.accepted_by_entry.values() for tx in txs)
        return oracle_stage(round_index, confirmed, discards)

    sim._oracle_stage = holding
    result = sim.run()
    assert held and set(held) == {Transfer}
    assert result.ok
    gc.collect()
    queued = {
        id(proof)
        for msgs in sim.network._outbox.values()
        for msg in msgs if isinstance(msg, Batch)
        for tx in msg.txs
        for proof in (tx.src_proof, tx.dst_proof)
    }
    known = {id(obj) for obj in before}
    live = {
        id(obj) for obj in gc.get_objects()
        if isinstance(obj, BalanceProof) and id(obj) not in known
    }
    assert queued and live == queued

    kept = [tx for node in sim.storage.values() for txs, _ in node._pending.values() for tx in txs]
    kept += [tx for txs in sim.accepted_by_entry.values() for tx in txs]
    assert kept and {type(tx) for tx in kept} == {Transfer}
    nets = [item for cc in sim.ccs for net in cc.window for item in net.items()]
    assert nets and {type(x) for item in nets for x in item} == {int}

    meters = list(sim.network.meters.values())
    entries = result.reports[-1]["per_committee"]
    assert len(entries) == len(meters) == len(sim.counters)
    assert all(entry is vars(meter) for entry, meter in zip(entries, meters))

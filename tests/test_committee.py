"""Confirmation rounds: ordering, roll-forward, the sequential balance rule."""

import random
from dataclasses import replace

import pytest

from pipechain.committee import ConfirmationCommittee, order_canonically
from pipechain.ledger import (
    GENESIS_PREV_HASH,
    Block,
    BlockHistory,
    Transaction,
    block_hash,
)
from pipechain.merkle import build_pruned


def _tx(src, dst, amount, entry_round=5, nonce=0):
    return Transaction(src, dst, amount, entry_round, nonce)


def test_order_canonically_is_txid_order():
    txs = [_tx(1, 2, 10, nonce=n) for n in range(6)]
    shuffled = list(txs)
    random.Random(0).shuffle(shuffled)
    ordered = order_canonically(shuffled)
    assert [t.txid for t in ordered] == sorted(t.txid for t in txs)
    assert order_canonically(reversed(shuffled)) == ordered


class _Harness:
    """One committee against a two-block history over a real balance tree."""

    def __init__(self, balances, entry_round=5, window_rounds=3):
        self.address_bits = 6
        self.entry_round = entry_round
        self.tree = build_pruned(sorted(balances.items()), self.address_bits)
        root = self.tree.root_hash()
        self.history = BlockHistory()
        prev = Block(entry_round - 2, GENESIS_PREV_HASH, root)
        self.history.push(prev)
        self.history.push(Block(entry_round - 1, block_hash(prev), root))
        self.committee = ConfirmationCommittee(0, window_rounds, self.address_bits)
        self._nonce = 0

    def tx(self, src, dst, amount, base=None):
        base = self.entry_round - 2 if base is None else base
        for account in (src, dst):
            self.tree.ensure_path(account)
        self._nonce += 1
        return Transaction(
            src,
            dst,
            amount,
            self.entry_round,
            self._nonce,
            self.tree.make_proof(src, base),
            self.tree.make_proof(dst, base),
        )

    def confirm(self, txs):
        seq, discards, stats = self.committee.confirm_round(
            txs, self.entry_round, self.history
        )
        # the chain advances every round; the tree root only changes when a
        # test applies confirmed transfers itself (pipeline lag is q rounds)
        prev = self.history.get(self.entry_round - 1)
        self.history.push(
            Block(self.entry_round, block_hash(prev), self.tree.root_hash())
        )
        self.entry_round += 1
        return seq, discards, stats


def test_accepts_within_balance():
    h = _Harness({1: 50, 2: 30})
    seq, discards, stats = h.confirm([h.tx(1, 9, 20), h.tx(2, 1, 30)])
    assert stats.received == 2 and stats.accepted == 2 and not discards
    assert {t.src for t in seq} == {1, 2}


def test_rejects_insufficient_sequentially():
    h = _Harness({1: 50})
    txs = [h.tx(1, 9, 30), h.tx(1, 8, 30)]
    seq, discards, stats = h.confirm(txs)
    # canonical order decides which of the two conflicting spends survives
    assert stats.accepted == 1
    assert [reason for _, reason in discards] == ["insufficient"]
    assert seq[0].txid == min(t.txid for t in txs)


def test_credit_then_spend_same_round():
    h = _Harness({1: 50, 2: 0})
    first, second = h.tx(1, 2, 40), h.tx(2, 9, 30)
    # only valid if the credit to 2 precedes its spend in canonical order;
    # the committee must apply its own order, not submission order
    seq, _, _ = h.confirm([second, first])
    if first.txid < second.txid:
        assert len(seq) == 2
    else:
        assert [t.txid for t in seq] == [first.txid]


def test_duplicate_txid_discarded():
    h = _Harness({1: 50})
    tx = h.tx(1, 9, 10)
    seq, discards, stats = h.confirm([tx, tx])
    assert stats.accepted == 1
    assert [reason for _, reason in discards] == ["duplicate"]
    assert len(seq) == 1


def test_the_window_keeps_each_rounds_net_changes():
    # 7 can pay both its spends in any order; the empty account 5 cannot
    # pay, so it does not join the window
    h = _Harness({7: 10, 2: 20})
    txs = [h.tx(7, 9, 4), h.tx(2, 7, 8), h.tx(7, 3, 6), h.tx(5, 3, 1)]
    seq, discards, _ = h.confirm(txs)
    assert len(seq) == 3 and [reason for _, reason in discards] == ["insufficient"]
    h.confirm([])
    assert list(h.committee.window) == [{}, {7: -4 + 8 - 6, 9: 4, 2: -8, 3: 6}, {}]


def test_window_roll_forward_blocks_double_spend():
    h = _Harness({1: 50})
    spend = h.tx(1, 9, 40)
    seq, _, _ = h.confirm([spend])
    assert len(seq) == 1
    # same base, same balance proof: the window must charge the prior spend
    retry = h.tx(1, 8, 40, base=h.entry_round - 2)
    seq, discards, _ = h.confirm([retry])
    assert not seq
    assert [reason for _, reason in discards] == ["insufficient"]


def test_window_credits_are_visible():
    h = _Harness({1: 50, 2: 0})
    h.confirm([h.tx(1, 2, 35)])
    spend = h.tx(2, 9, 30)  # proof still shows 0, window shows +35
    seq, _, stats = h.confirm([spend])
    assert len(seq) == 1
    assert stats.accepted == 1


def test_base_choice_does_not_double_count():
    h = _Harness({1: 50, 2: 0})
    h.confirm([h.tx(1, 2, 35)])  # entry 5 confirmed
    h.confirm([])  # entry 6
    # entry 7: bases 5 and 6 both live; a base-5 proof predates the credit,
    # a base-6 proof of the same account would still not include entry 5
    # (state of height 5 stops at entry 5 - q + 1), so both roll to 35
    old = h.tx(2, 9, 35, base=5)
    seq, discards, stats = h.confirm([old])
    assert len(seq) == 1 and not discards


def test_mixed_bases_agree_after_roll_forward():
    h = _Harness({1: 50, 2: 10})
    h.confirm([h.tx(1, 2, 35)])
    a = h.tx(2, 8, 1, base=h.entry_round - 2)
    b = h.tx(2, 9, 1, base=h.entry_round - 1)
    _, _, stats = h.confirm([a, b])
    assert stats.proof_disagreements == 0


def test_bases_that_disagree_are_counted():
    # the credit confirmed in entry 5 reaches the tree a round early, so block
    # 6 already holds it: a base-6 proof rolled forward over entry 5 counts it
    # twice, while a base-7 proof counts it once
    h = _Harness({1: 50, 2: 0})
    credit, _, _ = h.confirm([h.tx(1, 2, 35)])
    h.tree.apply_transfers(credit)
    h.confirm([])  # entry 6
    h.confirm([])  # entry 7
    a = h.tx(2, 8, 1, base=h.entry_round - 2)
    b = h.tx(2, 9, 1, base=h.entry_round - 1)
    _, _, stats = h.confirm([a, b])
    assert stats.proof_disagreements == 1


@pytest.mark.parametrize("amount, accepted", [(35, True), (36, False)])
def test_newest_base_skips_the_rounds_it_holds(amount, accepted):
    # block 7 carries the credit confirmed in entry 5 (q = 3), so a base-7
    # proof already shows 35 and must not roll the credit forward again
    h = _Harness({1: 50, 2: 0})
    credit, _, _ = h.confirm([h.tx(1, 2, 35)])
    h.confirm([])  # entry 6
    h.tree.apply_transfers(credit)
    h.confirm([])  # entry 7
    spend = h.tx(2, 9, amount, base=7)
    seq, discards, _ = h.confirm([spend])
    assert seq == ((spend,) if accepted else ())
    assert [reason for _, reason in discards] == ([] if accepted else ["insufficient"])


def test_syntactic_discards_counted():
    h = _Harness({1: 50, 2: 30})
    bad_amount = h.tx(1, 9, 0)
    good = h.tx(2, 9, 10)
    seq, discards, stats = h.confirm([bad_amount, good])
    assert [reason for _, reason in discards] == ["amount"]
    assert len(seq) == 1
    assert stats.hashes > 0  # proof folds were metered


def test_out_of_range_proof_balance_is_a_bad_proof():
    # a balance no leaf can hold is discarded at admission; the round goes on
    h = _Harness({1: 50, 2: 30})
    good = h.tx(2, 9, 10)
    low, high = h.tx(1, 9, 5), h.tx(1, 8, 5)
    low = replace(low, src_proof=replace(low.src_proof, balance=-7))
    high = replace(high, dst_proof=replace(high.dst_proof, balance=2**64))
    seq, discards, stats = h.confirm([low, good, high])
    assert sorted(reason for _, reason in discards) == ["bad_proof", "bad_proof"]
    assert seq == (good,) and stats.accepted == 1
    seq, discards, _ = h.confirm([h.tx(1, 9, 20)])
    assert len(seq) == 1 and not discards


def test_safety_against_brute_force_replay():
    # whatever a committee accepts over many rounds must replay without
    # overdraft when starting from the true base balances; the base tree
    # lags confirmation by q rounds exactly as served by storage
    rng = random.Random(7)
    address_bits, stages = 6, 3
    balances = {a: rng.randrange(0, 60) for a in range(10)}
    tree = build_pruned(sorted(balances.items()), address_bits)
    for account in range(12):
        tree.ensure_path(account)
    committee = ConfirmationCommittee(0, stages, address_bits)
    history = BlockHistory()
    history.push(Block(2, GENESIS_PREV_HASH, tree.root_hash()))
    entry_log: dict[int, tuple] = {}
    accepted = []
    nonce = 0
    for entry in range(4, 24):
        # proofs fetched against B_{entry-2}, whose state the tree holds now
        batch = []
        for _ in range(6):
            src, dst = rng.sample(range(12), 2)
            nonce += 1
            batch.append(
                Transaction(
                    src,
                    dst,
                    rng.randrange(1, 40),
                    entry,
                    nonce,
                    tree.make_proof(src, entry - 2),
                    tree.make_proof(dst, entry - 2),
                )
            )
        # the next block commits the entry round that just left the window
        tree.apply_transfers(entry_log.get(entry - stages, ()))
        prev = history.get(entry - 2)
        history.push(Block(entry - 1, block_hash(prev), tree.root_hash()))
        seq, _, _ = committee.confirm_round(batch, entry, history)
        entry_log[entry] = seq
        accepted.extend(seq)
    replay = dict(balances)
    for tx in accepted:
        replay[tx.src] = replay.get(tx.src, 0) - tx.amount
        replay[tx.dst] = replay.get(tx.dst, 0) + tx.amount
        assert replay[tx.src] >= 0, "accepted sequence overdrew an account"
    assert len(accepted) >= 20, "scenario barely exercised the balance rule"


def test_window_requires_positive_depth():
    with pytest.raises(ValueError):
        ConfirmationCommittee(0, 0, 6)


def test_malformed_fields_are_named_discards():
    # Each malformed copy of a valid transfer is discarded with a named
    # reason instead of raising, and the round's good transfer is accepted.
    # A copy keeps the transfer's txid, so changing a field needs no rehash;
    # one built without a txid hashes an amount that does not pack as 8
    # bytes (a float, or 2**64) with the fallback encoding instead of raising.
    h = _Harness({1: 50, 2: 30})
    cases = (
        (lambda tx: replace(tx, src_proof=replace(tx.src_proof, balance=1.5)), "bad_proof"),
        (lambda tx: replace(tx, src_proof=replace(tx.src_proof, account=1.0)), "bad_proof"),
        (lambda tx: replace(tx, dst_proof=replace(tx.dst_proof, account=20.0)), "bad_proof"),
        (lambda tx: replace(tx, src_proof=replace(tx.src_proof, siblings=None)), "bad_proof"),
        (
            lambda tx: replace(
                tx, src_proof=replace(tx.src_proof, siblings=(7,) + tx.src_proof.siblings[1:])
            ),
            "bad_proof",
        ),
        (lambda tx: replace(tx, src_proof=replace(tx.src_proof, base_height=3.0)), "bad_proof"),
        (lambda tx: replace(tx, src_proof="proof"), "bad_proof"),
        (lambda tx: replace(tx, src=1.0), "bad_proof"),
        (lambda tx: replace(tx, dst=20.0), "bad_proof"),
        (lambda tx: replace(tx, amount=0.5), "amount"),
        (lambda tx: replace(tx, amount=True), "amount"),
        (lambda tx: replace(tx, amount=2**64), "insufficient"),
    )
    for malform, reason in cases:
        bad, good = malform(h.tx(1, 20, 5)), h.tx(2, 9, 1)
        seq, discards, stats = h.confirm([bad, good])
        assert discards == [(bad, reason)]
        assert seq == (good,) and stats.accepted == 1


def test_a_proof_binds_its_own_account():
    # Account 9 holds 5.  A transfer of 30 from it carrying account 3's valid
    # proof (balance 40) is a bad proof, as is a destination proof of another
    # account; the committee can never overdraw account 9.
    h = _Harness({3: 40, 9: 5})
    honest = h.tx(3, 20, 30)
    theft = Transaction(9, 20, 30, h.entry_round, 100, honest.src_proof, honest.dst_proof)
    h.tree.ensure_path(21)
    foreign_dst = Transaction(3, 21, 1, h.entry_round, 101, honest.src_proof, honest.dst_proof)
    seq, discards, stats = h.confirm([theft, foreign_dst])
    assert sorted(reason for _, reason in discards) == ["bad_proof", "bad_proof"]
    assert seq == () and stats.accepted == 0
    # the binding is part of a proof's check: the theft is charged its source
    # proof's fold, the other transfer both folds
    assert stats.hashes == 3 * (h.address_bits + 1)

"""Transactions, blocks, truncated history, routing, admission checks."""

import hashlib
from dataclasses import replace

import pytest

from pipechain.ledger import (
    GENESIS_PREV_HASH,
    Block,
    BlockHistory,
    Transaction,
    block_hash,
    cc_index,
    syntactic_failure,
    transaction_id,
)
from pipechain.merkle import build_pruned
from pipechain.pipeline import build_topology


def test_transaction_id_preimage():
    parts = b"".join(v.to_bytes(8, "big") for v in (3, 9, 42, 5, 17))
    assert transaction_id(3, 9, 42, 5, 17) == hashlib.sha256(parts).digest()
    tx = Transaction(3, 9, 42, 5, 17)
    assert tx.txid == transaction_id(3, 9, 42, 5, 17)
    # a field that does not pack hashes the fallback encoding
    fallback = repr(["0x1", "0x2", 0.5, "0x5", "0x0"]).encode()
    assert Transaction(1, 2, 0.5, 5, 0).txid == hashlib.sha256(fallback).digest()
    fallback = repr(["0x1", "0x2", hex(2**64), "0x5", "-0x1"]).encode()
    assert Transaction(1, 2, 2**64, 5, -1).txid == hashlib.sha256(fallback).digest()


def test_txid_follows_the_fields_and_cannot_be_set():
    tx = Transaction(3, 9, 42, 5, 17)
    with pytest.raises(TypeError):
        Transaction(3, 9, 42, 5, 17, txid=b"\x00" * 32)
    # a copy with another amount carries the id of its own fields
    moved = replace(tx, amount=tx.amount + 1)
    assert moved.txid == transaction_id(3, 9, 43, 5, 17) != tx.txid
    assert moved.transfer == (3, 9, 43)


def test_block_bytes_layout():
    block = Block(7, b"\xaa" * 32, b"\xbb" * 32)
    raw = block.to_bytes()
    assert len(raw) == 72
    assert raw[:8] == (7).to_bytes(8, "big")
    assert raw[8:40] == b"\xaa" * 32
    assert raw[40:] == b"\xbb" * 32
    assert block_hash(block) == hashlib.sha256(raw).digest()
    assert GENESIS_PREV_HASH == bytes(32)


def test_history_keeps_newest_two():
    history = BlockHistory()
    blocks = [Block(h, bytes(32), bytes([h]) * 32) for h in range(4)]
    history.push(blocks[0])
    assert history.get(0) is blocks[0]
    for block in blocks[1:]:
        history.push(block)
    assert [history.get(h) for h in range(4)] == [None, None, blocks[2], blocks[3]]


def test_history_rejects_non_monotonic():
    history = BlockHistory()
    history.push(Block(3, bytes(32), bytes(32)))
    with pytest.raises(ValueError):
        history.push(Block(3, bytes(32), bytes(32)))


def test_cc_index_is_hash_partition():
    digest = hashlib.sha256((77).to_bytes(8, "big")).digest()
    assert cc_index(77, 8) == int.from_bytes(digest[:8], "big") % 8


def test_cc_index_spreads_uniformly():
    committees = 8
    counts = [0] * committees
    n = 10_000
    for account in range(n):
        counts[cc_index(account, committees)] += 1
    mean = n / committees
    # binomial: 3 sigma around n/committees
    sigma = (n * (1 / committees) * (1 - 1 / committees)) ** 0.5
    for count in counts:
        assert abs(count - mean) <= 3 * sigma


def test_portion_index_uses_top_bits():
    # routing an account to its portion is the topology's job
    assert build_topology(4, 7, address_bits=6).portion_of(0b110101) == 0b11
    assert build_topology(1, 7, address_bits=6).portion_of(5) == 0
    with pytest.raises(ValueError):
        build_topology(3, 7, address_bits=6)


def _chain(roots):
    history = BlockHistory()
    prev = Block(0, GENESIS_PREV_HASH, roots[0])
    history.push(prev)
    for height, root in enumerate(roots[1:], start=1):
        prev = Block(height, block_hash(prev), root)
        history.push(prev)
    return history, prev


def test_syntactic_reasons():
    tree = build_pruned([(1, 50), (2, 30)], 4)
    root = tree.root_hash()
    history, _ = _chain([bytes(32), bytes(32), root, root])  # heights 2, 3 live
    p1 = tree.make_proof(1, base_height=3)
    p2 = tree.make_proof(2, base_height=3)

    good = Transaction(1, 2, 10, 5, 0, p1, p2)
    assert syntactic_failure(good, 5, history) == (None, 2)

    assert syntactic_failure(replace(good, amount=0), 5, history)[0] == "amount"
    assert (
        syntactic_failure(Transaction(1, 1, 5, 5, 0, p1, p1), 5, history)[0]
        == "self_transfer"
    )
    assert (
        syntactic_failure(replace(good, src_proof=None), 5, history)[0]
        == "missing_proof"
    )

    stale = replace(p1, base_height=1)  # fell out of the truncated history
    assert (
        syntactic_failure(replace(good, src_proof=stale), 5, history)[0]
        == "expired_proof"
    )
    future = replace(p1, base_height=5)
    assert (
        syntactic_failure(replace(good, src_proof=future), 5, history)[0]
        == "future_proof"
    )
    lying = replace(p1, balance=999)
    assert (
        syntactic_failure(replace(good, src_proof=lying), 5, history)[0]
        == "bad_proof"
    )
    # dst proof failures surface too, after one successful src fold
    assert syntactic_failure(replace(good, dst_proof=lying), 5, history) == (
        "bad_proof",
        2,
    )


def test_proofs_may_use_either_live_base():
    tree_a = build_pruned([(1, 50)], 4)
    tree_b = build_pruned([(1, 50), (2, 5)], 4)
    history, _ = _chain([bytes(32), bytes(32), tree_a.root_hash(), tree_b.root_hash()])
    old_base = tree_a.make_proof(1, base_height=2)
    tree_b.ensure_path(3)
    new_base = tree_b.make_proof(3, base_height=3)
    tx = Transaction(1, 3, 10, 5, 0, old_base, new_base)
    assert syntactic_failure(tx, 5, history) == (None, 2)

"""Root-hash pipeline: topology, digest folding, leaf and inner committees."""

import re

import pytest

from pipechain.ledger import Block, Transaction, Transfer, block_hash
from pipechain import pipeline
from pipechain.merkle import build_pruned, node_hash
from pipechain.pipeline import (
    InnerRpc,
    LeafRpc,
    PipelineFault,
    build_topology,
    fold_levels,
    fold_up,
    next_block,
)


def test_topology_single_tier():
    topo = build_topology(8, 7, address_bits=16)
    assert topo.portion_levels == 3
    assert topo.portion_bits == 13
    assert len(topo.tiers) == 1
    tier = topo.tiers[0]
    assert (tier.count, tier.child_count, tier.owned_levels, tier.base_level) == (
        1,
        8,
        3,
        0,
    )
    assert topo.rpc_levels == 2
    assert topo.stages == 3
    assert topo.inner_count == 1


def test_topology_two_tiers():
    topo = build_topology(16, 7, address_bits=16)
    assert [t.count for t in topo.tiers] == [2, 1]
    assert [t.owned_levels for t in topo.tiers] == [3, 1]
    assert [t.child_count for t in topo.tiers] == [8, 2]
    assert topo.rpc_levels == 3
    assert topo.stages == 4
    assert topo.inner_count == 3


def test_topology_single_leaf():
    topo = build_topology(1, 7, address_bits=8)
    assert topo.tiers == ()
    assert topo.rpc_levels == 1
    assert topo.stages == 2
    assert topo.portion_of(200) == 0


def test_topology_inner_total_matches_the_closed_form():
    for leaf_exp in range(0, 8):
        for budget in (1, 3, 7, 15, 63, 1023):
            leaf = 1 << leaf_exp
            topo = build_topology(leaf, budget, address_bits=12)
            # ceil((leaf - 1) / j_hat) committees of j_hat = 2**levels - 1
            # hashes each fold the leaf - 1 nodes above the portion roots
            per_tier = fold_levels(budget)
            expected = -(-(leaf - 1) // ((1 << per_tier) - 1))
            assert topo.inner_count == expected, (leaf, budget)
            # full folds bottom-up, the remainder in one tier on top
            full, rest = divmod(leaf_exp, per_tier)
            levels = tuple(t.owned_levels for t in topo.tiers)
            expected_levels = (per_tier,) * full + ((rest,) if rest else ())
            assert levels == expected_levels, (leaf, budget)
            # `dimension` builds the narrowest address space that fits; the
            # counts do not depend on it
            narrow = build_topology(leaf, budget, leaf.bit_length())
            assert (narrow.inner_count, narrow.rpc_levels, narrow.stages) == (
                topo.inner_count,
                topo.rpc_levels,
                topo.stages,
            )


def test_topology_validation():
    with pytest.raises(ValueError):
        build_topology(6, 7, address_bits=8)  # not a power of two
    with pytest.raises(ValueError):
        build_topology(256, 7, address_bits=8)  # no address bits left per portion


def test_portion_geometry():
    topo = build_topology(4, 7, address_bits=6)
    assert topo.portion_of(0b110101) == 0b11
    # portion 2 is [32, 48)
    assert topo.portion_of(32) == topo.portion_of(47) == 2
    assert topo.portion_of(31) == 1 and topo.portion_of(48) == 3
    assert topo.spine_positions(0b10) == ((4, 0b11), (5, 0b0))


def _count_node_hashes(monkeypatch):
    """A one-item list counting the node digests pipeline computes from now on."""
    made, original = [0], pipeline.node_hash

    def wrapper(left, right):
        made[0] += 1
        return original(left, right)

    monkeypatch.setattr(pipeline, "node_hash", wrapper)
    return made


def _row(digests, level=3):
    """{(level, index): digest} for a row of sibling digests, last first."""
    return {(level, i): d for i, d in reversed(list(enumerate(digests)))}


def test_fold_up_counts(monkeypatch):
    made = _count_node_hashes(monkeypatch)
    pair = [b"\x01" * 32, b"\x02" * 32]
    assert fold_up(_row(pair), 1) == {(4, 0): node_hash(*pair)}
    assert made == [1]
    digests = [bytes([i]) * 32 for i in range(8)]
    computed = fold_up(_row(digests), 3)
    assert made == [1 + 7]
    # keyed by position, bottom first and left to right whatever the row's order
    assert list(computed) == [(4, 0), (4, 1), (4, 2), (4, 3), (5, 0), (5, 1), (6, 0)]
    assert computed[(4, 3)] == node_hash(digests[6], digests[7])
    # an inner committee counts the digests its fold makes: one per child but one
    rpc = InnerRpc(build_topology(8, 7, address_bits=6), 0, 0)
    assert rpc.spec.child_count == 8
    assert rpc.fold_round(_row(digests).items())[0] == computed[(6, 0)]
    assert rpc.hashes == 7 and made == [1 + 7 + 7]


def test_fold_single_digest_is_identity(monkeypatch):
    made = _count_node_hashes(monkeypatch)
    assert fold_up({(3, 0): b"\x07" * 32}, 0) == {}
    assert made == [0]


def _proofed(tree, src, dst, amount, entry_round, nonce, base=0):
    return Transaction(
        src,
        dst,
        amount,
        entry_round,
        nonce,
        tree.make_proof(src, base),
        tree.make_proof(dst, base),
    )


def _portion_root(balances, portion):
    """Digest of one of the two portions of a five-bit address space."""
    entries = sorted((a, b) for a, b in balances.items() if a >> 4 == portion)
    return build_pruned(entries, 5, root_level=4, root_index=portion).root_hash()


def test_leaf_round_tracks_reference_tree():
    # A=5, two portions of 16 addresses; the confirmed Transfers, which
    # carry no proofs, cross portions and credit an account no leaf holds
    topo = build_topology(2, 7, address_bits=5)
    genesis = {0: 100, 3: 50, 20: 70}
    leaf0 = LeafRpc(topo, 0, [(0, 100), (3, 50)])
    leaf1 = LeafRpc(topo, 1, [(20, 70)])
    assert leaf0.tree.root_hash() == _portion_root(genesis, 0)
    assert leaf1.tree.root_hash() == _portion_root(genesis, 1)

    tx1 = Transfer(0, 5, 10)  # inside portion 0
    tx2 = Transfer(3, 20, 25)  # crosses portions
    d0 = leaf0.process_round([tx1, tx2])
    d1 = leaf1.process_round([tx2])

    after = {0: 90, 3: 25, 5: 10, 20: 95}
    assert d0 == _portion_root(after, 0)
    assert d1 == _portion_root(after, 1)
    assert fold_up({(4, 0): d0, (4, 1): d1}, 1)[(5, 0)] == (
        build_pruned(sorted(after.items()), 5).root_hash()
    )


def test_leaf_prefers_own_balance_over_stale_proof():
    topo = build_topology(2, 7, address_bits=5)
    genesis_tree = build_pruned([(0, 100)], 5)
    leaf = LeafRpc(topo, 0, [(0, 100)])
    credit = _proofed(genesis_tree, 0, 9, 5, 1, 1)
    leaf.process_round([credit])
    # next round's proofs still based before the credit: account 9 shows 0,
    # but the leaf has 5 and its own balance must win
    spend = _proofed(genesis_tree, 9, 1, 3, 2, 2)
    digest = leaf.process_round([spend])
    assert digest == _portion_root({0: 95, 9: 2, 1: 3}, 0)
    assert leaf.tree.leaves[9] == 2


def test_leaf_names_a_transfer_that_overdraws_its_tree():
    # a leaf debits its own tree's balance, so a forged amount faults there,
    # named by portion, before any balance or digest changes
    topo = build_topology(2, 7, address_bits=5)
    leaf = LeafRpc(topo, 1, [(20, 70)])
    root, hashes = leaf.tree.root_hash(), leaf.tree.hashes
    with pytest.raises(PipelineFault, match="^leaf 1: negative balance for account 20$"):
        leaf.process_round([Transfer(20, 3, 50), Transfer(20, 21, 21)])
    assert leaf.tree.leaves[20] == 70
    assert (leaf.tree.root_hash(), leaf.tree.hashes) == (root, hashes)


def test_inner_rpc_computed_positions():
    # hash budget 1 folds one level per committee: two tiers of 2-ary rpcs
    topo = build_topology(4, 1, address_bits=6)
    assert [t.owned_levels for t in topo.tiers] == [1, 1]
    assert [t.count for t in topo.tiers] == [2, 1]
    rpc = InnerRpc(topo, 0, 1)  # right half of the first tier
    d = [bytes([7]) * 32, bytes([9]) * 32]
    top, computed = rpc.fold_round([((4, 3), d[1]), ((4, 2), d[0])])
    assert top == node_hash(d[0], d[1])
    assert computed == {(5, 1): top}
    root_rpc = InnerRpc(topo, 1, 0)
    top2, computed2 = root_rpc.fold_round([((5, 1), top), ((5, 0), bytes([1]) * 32)])
    assert computed2 == {(6, 0): top2}
    # a missing, repeated or foreign slot ends the fold, named
    faults = {
        "is missing child digest (4, 2)": [((4, 3), d[1])],
        "got a repeated child digest (4, 3)": [((4, 3), d[1]), ((4, 3), d[1])],
        "got a foreign child digest (4, 1)": [((4, 3), d[1]), ((4, 1), d[0])],
        "got a foreign child digest (5, 2)": [((4, 3), d[1]), ((5, 2), d[0])],
    }
    for message, children in faults.items():
        with pytest.raises(PipelineFault, match=rf"^tier 0 rpc 1 {re.escape(message)}$"):
            rpc.fold_round(children)
    assert rpc.hashes == 1


def test_inner_rpc_multi_level_positions():
    topo = build_topology(4, 7, address_bits=6)  # one tier owning both levels
    rpc = InnerRpc(topo, 0, 0)
    digests = [bytes([i]) * 32 for i in range(4)]
    top, computed = rpc.fold_round(_row(digests, level=4).items())
    assert set(computed) == {(5, 0), (5, 1), (6, 0)}
    assert computed[(6, 0)] == top
    halves = node_hash(*digests[:2]), node_hash(*digests[2:])
    assert top == node_hash(*halves)


def test_next_block_links():
    prev = Block(4, b"\x00" * 32, b"\x11" * 32)
    block = next_block(prev, b"\x22" * 32)
    assert block.height == 5
    assert block.prev_hash == block_hash(prev)
    assert block.state_root == b"\x22" * 32

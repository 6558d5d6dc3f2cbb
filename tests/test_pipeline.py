"""Root-hash pipeline: topology, digest folding, leaf and inner committees."""

from dataclasses import replace

import pytest

from pipechain.ledger import Block, Transaction, block_hash
from pipechain.merkle import HashCounter, build_pruned
from pipechain.pipeline import (
    InnerRpc,
    LeafRpc,
    PipelineFault,
    build_topology,
    fold_digests,
    next_block,
)
from pipechain.provisioning import min_committees, provision_minimal, tier_levels


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


def test_topology_inner_total_matches_min_committees():
    for leaf_exp in range(0, 8):
        for budget in (1, 3, 7, 15, 63, 1023):
            leaf = 1 << leaf_exp
            topo = build_topology(leaf, budget, address_bits=12)
            # the closed form counts exactly the committees the tree packs
            expected = min_committees(leaf, 1, budget)[1]
            assert topo.inner_count == expected, (leaf, budget)
            # and the dimensioning tiers are the ones the engine builds
            levels = tuple(t.owned_levels for t in topo.tiers)
            assert levels == tier_levels(leaf, budget), (leaf, budget)
            prov = provision_minimal(leaf, 1, budget)
            assert (prov.rpc_levels, prov.stages) == (topo.rpc_levels, topo.stages)


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


def test_fold_digests_counts():
    counter = HashCounter()
    top2, levels2 = fold_digests([b"\x01" * 32, b"\x02" * 32], counter)
    assert counter.internal == 1
    assert levels2 == [[top2]]
    counter = HashCounter()
    digests = [bytes([i]) * 32 for i in range(8)]
    top8, levels8 = fold_digests(digests, counter)
    assert counter.internal == 7
    assert [len(row) for row in levels8] == [4, 2, 1]
    assert levels8[-1] == [top8]
    with pytest.raises(ValueError):
        fold_digests(digests[:3])


def test_fold_single_digest_is_identity():
    counter = HashCounter()
    top, levels = fold_digests([b"\x07" * 32], counter)
    assert top == b"\x07" * 32
    assert levels == []
    assert counter.total() == 0


def _proofed(tree, src, dst, amount, entry_round, nonce, base=0):
    for account in (src, dst):
        tree.ensure_path(account)
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
    # A=5, two portions of 16 addresses; confirmed stream crosses portions
    topo = build_topology(2, 7, address_bits=5)
    genesis = {0: 100, 3: 50, 20: 70}
    global_tree = build_pruned(sorted(genesis.items()), 5)
    leaf0 = LeafRpc(topo, 0, [(0, 100), (3, 50)])
    leaf1 = LeafRpc(topo, 1, [(20, 70)])
    assert leaf0.tree.root_hash() == _portion_root(genesis, 0)
    assert leaf1.tree.root_hash() == _portion_root(genesis, 1)

    tx1 = _proofed(global_tree, 0, 5, 10, 1, 1)  # inside portion 0
    tx2 = _proofed(global_tree, 3, 20, 25, 1, 2)  # crosses portions
    d0 = leaf0.process_round([tx1, tx2])
    d1 = leaf1.process_round([tx2])

    after = {0: 90, 3: 25, 5: 10, 20: 95}
    assert d0 == _portion_root(after, 0)
    assert d1 == _portion_root(after, 1)
    assert fold_digests([d0, d1])[0] == build_pruned(sorted(after.items()), 5).root_hash()


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


def test_leaf_flags_conflicting_proof_material():
    topo = build_topology(2, 7, address_bits=5)
    leaf = LeafRpc(topo, 0, [(0, 100)])
    # a proof from a different world: a sibling over no held account is not all-zero
    other = build_pruned([(0, 100), (2, 9)], 5)
    bad = _proofed(other, 7, 1, 1, 1, 1)
    with pytest.raises(PipelineFault, match="^leaf 0: sibling digest mismatch"):
        leaf.process_round([bad])
    # a proof too short to reach the portion root is no graft either
    leaf = LeafRpc(topo, 0, [(0, 100)])
    short = _proofed(build_pruned([(0, 100)], 5), 0, 7, 1, 1, 1)
    short = replace(short, dst_proof=replace(short.dst_proof, siblings=()))
    with pytest.raises(PipelineFault, match="^leaf 0: proof has 0 siblings"):
        leaf.process_round([short])


def test_inner_rpc_computed_positions():
    # hash budget 1 folds one level per committee: two tiers of 2-ary rpcs
    topo = build_topology(4, 1, address_bits=6)
    assert [t.owned_levels for t in topo.tiers] == [1, 1]
    assert [t.count for t in topo.tiers] == [2, 1]
    rpc = InnerRpc(topo, 0, 1)  # right half of the first tier
    d = [bytes([7]) * 32, bytes([9]) * 32]
    top, computed = rpc.fold_round(d)
    assert computed == {(5, 1): top}
    root_rpc = InnerRpc(topo, 1, 0)
    top2, computed2 = root_rpc.fold_round([bytes([1]) * 32, top])
    assert computed2 == {(6, 0): top2}
    with pytest.raises(PipelineFault):
        rpc.fold_round([d[0]])


def test_inner_rpc_multi_level_positions():
    topo = build_topology(4, 7, address_bits=6)  # one tier owning both levels
    rpc = InnerRpc(topo, 0, 0)
    digests = [bytes([i]) * 32 for i in range(4)]
    top, computed = rpc.fold_round(digests)
    assert set(computed) == {(5, 0), (5, 1), (6, 0)}
    assert computed[(6, 0)] == top
    whole = fold_digests(digests)[0]
    assert top == whole


def test_next_block_links():
    prev = Block(4, b"\x00" * 32, b"\x11" * 32)
    block = next_block(prev, b"\x22" * 32)
    assert block.height == 5
    assert block.prev_hash == block_hash(prev)
    assert block.state_root == b"\x22" * 32

"""Storage nodes: spine-seeded trees, block application, proof service."""

import gc
from dataclasses import replace

import pytest

from pipechain.ledger import (
    GENESIS_PREV_HASH, Batch, Block, Frontier, Transaction, block_hash
)
from pipechain.merkle import NotStored, build_pruned, leaf_hash, verify_proof
from pipechain.pipeline import build_topology
from pipechain.storage import AUDIT_SAMPLE, GenesisMismatch, StateDivergence, StorageNode
from reference import corrupt_digest


def _portion_tree(topo, portion, entries):
    """A portion's genesis subtree, as its leaf committee builds it."""
    return build_pruned(
        entries, topo.address_bits, root_level=topo.portion_bits, root_index=portion
    )


def _digest(balances, level, index, address_bits=5):
    """Digest of one subtree of the ledger `balances`, from a scoped build."""
    entries = sorted((a, b) for a, b in balances.items() if a >> level == index)
    tree = build_pruned(entries, address_bits, root_level=level, root_index=index)
    return tree.root_hash()


def _world(balances, address_bits=5, leaf_count=2):
    topo = build_topology(leaf_count, 7, address_bits)
    tree = build_pruned(sorted(balances.items()), address_bits)
    genesis = Block(0, GENESIS_PREV_HASH, tree.root_hash())
    nodes = {}
    for portion in range(leaf_count):
        entries = [
            (a, b) for a, b in sorted(balances.items()) if topo.portion_of(a) == portion
        ]
        spine = [
            (pos, _digest(balances, *pos, address_bits))
            for pos in topo.spine_positions(portion)
        ]
        seed = _portion_tree(topo, portion, entries)
        nodes[portion] = StorageNode(topo, portion, 0, seed, spine, genesis)
    return topo, tree, genesis, nodes


def _tx(tree, src, dst, amount, nonce):
    return Transaction(
        src, dst, amount, 1, nonce,
        tree.make_proof(src, 0), tree.make_proof(dst, 0),
    )


def test_genesis_root_check():
    topo, tree, genesis, nodes = _world({3: 50, 20: 70})
    assert nodes[0].latest_block is genesis
    wrong = Block(0, GENESIS_PREV_HASH, bytes(32))
    with pytest.raises(GenesisMismatch, match=r"^storage 0/2 root [0-9a-f]{16} != genesis"):
        StorageNode(topo, 0, 2, _portion_tree(topo, 0, [(3, 50)]),
                    [((4, 1), _digest({20: 70}, 4, 1))], wrong)
    assert issubclass(GenesisMismatch, StateDivergence)


def test_apply_confirmed_advances_root():
    topo, tree, genesis, nodes = _world({3: 50, 20: 70})
    tx = _tx(tree, 3, 20, 30, 1)  # crosses portions
    after = build_pruned([(3, 20), (20, 100)], 5)
    block = Block(1, block_hash(genesis), after.root_hash())

    # each node needs the other portion's new digest as frontier material
    nodes[0].apply_confirmed([tx], {(4, 1): _digest({20: 100}, 4, 1)}, block)
    nodes[1].apply_confirmed([tx], {(4, 0): _digest({3: 20}, 4, 0)}, block)
    assert nodes[0].latest_block is block
    assert nodes[1].latest_block is block


def test_apply_detects_missing_frontier():
    topo, tree, genesis, nodes = _world({3: 50, 20: 70})
    tx = _tx(tree, 3, 20, 30, 1)
    after = build_pruned([(3, 20), (20, 100)], 5)
    block = Block(1, block_hash(genesis), after.root_hash())
    with pytest.raises(StateDivergence):
        nodes[0].apply_confirmed([tx], {}, block)  # stale sibling digest


def test_apply_detects_corrupt_frontier():
    topo, tree, genesis, nodes = _world({3: 50, 20: 70})
    tx = _tx(tree, 3, 20, 30, 1)
    after = build_pruned([(3, 20), (20, 100)], 5)
    block = Block(1, block_hash(genesis), after.root_hash())
    with pytest.raises(StateDivergence):
        nodes[0].apply_confirmed([tx], {(4, 1): bytes(32)}, block)
    # a frontier item off the node's spine (portion 1's own root)
    with pytest.raises(StateDivergence, match=r"^storage 1/0: \(4, 1\) is not on the spine"):
        nodes[1].apply_confirmed([], {(4, 1): bytes(32)}, block)


def test_serve_proof_roundtrip():
    topo, tree, genesis, nodes = _world({3: 50, 20: 70})
    proof = nodes[0].serve_proof(3)
    assert proof.balance == 50
    assert proof.base_height == 0
    assert verify_proof(proof, genesis.state_root)
    # zero balances are provable without ever being funded
    zero = nodes[1].serve_proof(21)
    assert zero.balance == 0
    assert verify_proof(zero, genesis.state_root)
    with pytest.raises(NotStored):
        nodes[0].serve_proof(21)  # other portion


def test_proofs_stay_valid_after_blocks():
    topo, tree, genesis, nodes = _world({3: 50, 20: 70})
    tx = _tx(tree, 3, 20, 30, 1)
    after = build_pruned([(3, 20), (20, 100)], 5)
    block = Block(1, block_hash(genesis), after.root_hash())
    nodes[0].apply_confirmed([tx], {(4, 1): _digest({20: 100}, 4, 1)}, block)
    proof = nodes[0].serve_proof(3)
    assert proof.balance == 20
    assert proof.base_height == 1
    assert verify_proof(proof, block.state_root)
    assert not verify_proof(proof, genesis.state_root)


def test_replicas_identical():
    topo = build_topology(2, 7, 5)
    tree = build_pruned([(3, 50), (20, 70)], 5)
    genesis = Block(0, GENESIS_PREV_HASH, tree.root_hash())
    spine = [((4, 1), _digest({20: 70}, 4, 1))]
    seed = _portion_tree(topo, 0, [(3, 50)])
    a = StorageNode(topo, 0, 0, seed, spine, genesis)
    b = StorageNode(topo, 0, 1, seed, spine, genesis)
    assert a.serve_proof(3) == b.serve_proof(3)
    assert a.tree.leaves == b.tree.leaves


def test_audit_stored():
    topo, tree, genesis, nodes = _world({3: 50, 4: 9, 20: 70})
    node = nodes[0]
    content = dict(node.tree.leaves), dict(node.tree._nodes)
    hashes = node.tree.hashes
    checked, failed = node.audit_stored()
    assert failed == 0
    assert checked == len(node.tree.leaves)
    assert set(node.tree.leaves) == {3, 4}
    # the audit is a read: no hash is counted, the content is as it was and
    # every kept digest still agrees with a re-fold
    assert node.tree.hashes == hashes
    assert (node.tree.leaves, node.tree._nodes) == content
    assert node.tree.refold() == (_digest({3: 50, 4: 9}, 4, 0), [])  # the portion root
    # a tree that does not fold to the newest block's root fails every account
    node.latest_block = Block(1, block_hash(genesis), bytes(32))
    assert node.audit_stored() == (2, 2)


def test_audit_detects_corrupt_cached_digest():
    topo, tree, genesis, nodes = _world({3: 50, 4: 9, 20: 70})
    node = nodes[0]
    # leaf 2 is absent, so no served proof of a stored account reads
    # leaf 3's cached digest; the balances stay as they are
    corrupt_digest(node.tree, 0, 3, leaf_hash(3, 51))
    assert node.audit_stored() == (2, 2)
    # so is a digest inside a tail: node 1 holds account 20 alone, on a tail
    # from its leaf up to the portion's top at level 4
    assert nodes[1].audit_stored() == (1, 0)
    corrupt_digest(nodes[1].tree, 2, 20 >> 2, bytes(32))
    assert nodes[1].audit_stored() == (1, 1)


def test_audit_fails_a_stray_record():
    # portion 0 holds accounts 3 and 4; a record at leaf 9, which it does
    # not hold, is a position its balances do not build
    topo, tree, genesis, nodes = _world({3: 50, 4: 9, 20: 70})
    node = nodes[0]
    node.tree._nodes[32 + 9] = (9).to_bytes(8, "big") + leaf_hash(9, 1)
    assert node.audit_stored() == (2, 2)


def test_audit_fails_a_deleted_inner_node():
    # accounts 3 and 4 part at level 3, so their common parent is inner
    topo, tree, genesis, nodes = _world({3: 50, 4: 9, 20: 70})
    node = nodes[0]
    del node.tree._nodes[4]  # (3, 0)
    assert node.tree.refold()[1] == [(3, 0)]
    assert node.audit_stored() == (2, 2)


def test_audit_leaves_no_garbage():
    # a re-fold that kept its scratch map in a reference cycle would hold it
    # until the next full collection
    topo, tree, genesis, nodes = _world({3: 50, 4: 9, 20: 70})
    gc.collect()
    gc.disable()
    try:
        assert nodes[0].audit_stored() == (2, 0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_single_portion_storage_has_no_spine():
    topo, tree, genesis, nodes = _world({3: 50, 20: 70}, leaf_count=1)
    node = nodes[0]
    assert node.tree.covers(31)
    proof = node.serve_proof(20)
    assert verify_proof(proof, genesis.state_root)
    tx = _tx(tree, 20, 3, 70, 1)
    after = build_pruned([(3, 120), (20, 0)], 5)
    block = Block(1, block_hash(genesis), after.root_hash())
    node.apply_confirmed([tx], {}, block)
    assert node.serve_proof(20).balance == 0


def test_receive_buffers_an_entry_round_until_its_block():
    topo, tree, genesis, nodes = _world({3: 50, 20: 70})
    node, entry, q = nodes[0], 4, topo.stages
    # the second transfer spends the first one's credit, so only the arrival
    # order applies cleanly
    first = Batch(entry, (_tx(tree, 3, 5, 40, 1).transfer,))
    second = Batch(entry, (_tx(tree, 5, 20, 30, 2).transfer,))
    after = build_pruned([(3, 10), (5, 10), (20, 100)], 5)
    frontier = Frontier(entry, (((4, 1), _digest({20: 100}, 4, 1)),))
    assert node.receive([first, second, frontier], None) is None
    # the block before carries the entry round before: nothing to apply
    earlier = Block(entry + q - 2, block_hash(genesis), genesis.state_root)
    assert node.receive([], earlier) == []
    assert node.tree.leaves == {3: 50}
    assert node.latest_block is earlier
    block = Block(entry + q - 1, block_hash(earlier), after.root_hash())
    assert topo.entry_of(block.height) == entry
    assert node.receive([], block) == [*first.txs, *second.txs]
    assert node.tree.leaves == {3: 10, 5: 10}
    assert node.latest_block is block
    # applied once: the next block finds the entry round gone
    later = Block(block.height + 1, block_hash(block), after.root_hash())
    assert node.receive([], later) == []
    assert node.tree.leaves == {3: 10, 5: 10}


def test_audit_adds_a_rotating_sample_of_served_proofs():
    balances = {a: 10 for a in range(1, 7)} | {20: 70}
    topo, tree, genesis, nodes = _world(balances)
    node = nodes[0]
    stored = len(node.tree.leaves)
    assert stored == 6 and AUDIT_SAMPLE == 4
    # round 0 samples stored[0:4], round 1 the two left in stored[4:8]
    assert node.audit(0) == stored + 4
    assert node.audit(1) == stored + 2
    # a served proof that does not verify is named by its account
    serve = node.serve_proof
    node.serve_proof = lambda account: replace(serve(account), balance=11)
    failed = "^storage 0/0: audit of block 0: the proof of account 5 fails$"
    with pytest.raises(StateDivergence, match=failed):
        node.audit(1)
    del node.serve_proof
    # a wrong spine digest: the re-fold misses the block root
    node.spine = (bytes(32),)
    failed = "^storage 0/0: audit of block 0: the rebuilt portion path differs"
    with pytest.raises(StateDivergence, match=failed):
        node.audit(0)


def test_an_empty_portion_fails_its_audit_on_a_wrong_spine():
    # a tree holding no account fails no account, so audit_stored reads
    # (0, 0) whatever the spine; the audit still finds the wrong path
    topo, tree, genesis, nodes = _world({3: 50})
    node = nodes[1]
    assert not node.tree.leaves and node.audit(0) == 0
    node.spine = (bytes(32),)
    assert node.audit_stored() == (0, 0)
    failed = "^storage 1/0: audit of block 0: the rebuilt portion path differs"
    with pytest.raises(StateDivergence, match=failed):
        node.audit(0)


def test_a_failed_audit_names_the_first_stale_position():
    # accounts 3 and 4 part at level 3: their common parent (3, 0) is an
    # inner node, and leaf 3 is the bottom of 3's tail
    topo, tree, genesis, nodes = _world({3: 50, 4: 9, 20: 70})
    node = nodes[0]
    corrupt_digest(node.tree, 3, 0, bytes(32))
    failed = r"^storage 0/0: audit of block 0: kept digest at \(3, 0\) differs"
    with pytest.raises(StateDivergence, match=failed):
        node.audit(0)
    corrupt_digest(node.tree, 0, 3, bytes(32))
    with pytest.raises(StateDivergence, match=r"kept digest at \(0, 3\) differs"):
        node.audit(0)

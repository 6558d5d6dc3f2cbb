"""Pruned balance trees: digests, proofs, merging, and work accounting."""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipechain import merkle
from pipechain.merkle import (
    DEFAULT_DIGESTS,
    BalanceProof,
    NegativeBalance,
    NotStored,
    ProofConflict,
    SpineMemo,
    build_pruned,
    climb,
    leaf_digest,
    leaf_hash,
    node_hash,
    verify_proof,
)
from pipechain.ledger import GENESIS_PREV_HASH, Block, Transaction, Transfer, block_hash
from pipechain.oracle import LedgerOracle
from pipechain.pipeline import build_topology
from pipechain.storage import StateDivergence, StorageNode
from reference import full_tree_root

# frozen with raw hashlib, independently of the implementation
D0_HEX = "dda357c91ead42a1bd4ca061ae49480c54bee0e21a060e57341c220a23b6cbcd"
D1_HEX = "cc22c05f0b199beeb8c41bd3a25414717e4877f11cf7504ec3342d2f0e60f5e8"
D4_HEX = "5d1e3765c8d2f6ef2fc9d16782722defa162cf9861115bdc72b064dbac2f3896"
LEAF_5_10_HEX = "bbe850db3c397c18c370b3eb90df90620e019017fb77f55faaa2ee66a5bd1eb2"
ROOT_A4_5_10_HEX = "c88444b46ef723fdfdc07d2eb5f0394d7b3d384aaf26afe968d20bdd526b9504"
ROOT_A3_TWO_HEX = "ad894a1c247c188c5a7814008f646f2f542476d384a64841034763ebc83699b3"


def _corrupt_digest(tree, level, index, digest):
    """Overwrite the digest a tree keeps for one of its materialized nodes,
    an inner node or any level of a leaf tail, leaving its balances as they
    are."""
    key = (1 << (tree.address_bits - level)) + index
    node, top = tree._deepest(key)
    assert node == key, "not materialized"
    if top is None:
        tree._nodes[key] = digest
    else:  # a tail record: an 8-byte account, then 32 bytes a level
        record = tree._nodes[top]
        start = 8 + 32 * level
        tree._nodes[top] = record[:start] + digest + record[start + 32 :]


def test_leaf_hash_preimage():
    preimage = b"L" + (5).to_bytes(8, "big") + (10).to_bytes(8, "big")
    assert len(preimage) == 17
    assert leaf_hash(5, 10) == hashlib.sha256(preimage).digest()
    assert leaf_hash(5, 10).hex() == LEAF_5_10_HEX


def test_node_hash_preimage():
    left, right = b"\x01" * 32, b"\x02" * 32
    assert node_hash(left, right) == hashlib.sha256(b"N" + left + right).digest()


def test_default_digest_recurrence():
    assert DEFAULT_DIGESTS[0] == leaf_hash(0, 0)
    assert DEFAULT_DIGESTS[0].hex() == D0_HEX
    assert DEFAULT_DIGESTS[1].hex() == D1_HEX
    assert DEFAULT_DIGESTS[4].hex() == D4_HEX
    for level in range(1, 12):
        assert DEFAULT_DIGESTS[level] == node_hash(
            DEFAULT_DIGESTS[level - 1], DEFAULT_DIGESTS[level - 1]
        )


def test_empty_tree_root_is_default():
    assert build_pruned([], 4).root_hash().hex() == D4_HEX


def test_single_entry_root_and_structure():
    tree = build_pruned([(5, 10)], 4)
    assert tree.root_hash().hex() == ROOT_A4_5_10_HEX
    assert tree.leaves == {5: 10}
    # the off-path sibling at each level is absent and reads the default
    assert tree.make_proof(5, 0).siblings == DEFAULT_DIGESTS[:4]
    # one tail record, leaf to top, and nothing else
    assert tree._nodes == {1: (5).to_bytes(8, "big") + b"".join(
        climb(5, leaf_hash(5, 10), DEFAULT_DIGESTS[:4])
    )}


def test_two_entry_root():
    tree = build_pruned([(1, 7), (6, 9)], 3)
    assert tree.root_hash().hex() == ROOT_A3_TWO_HEX


def test_zero_balance_canonical():
    # a zero leaf hashes like the shared default, so clearing an account
    # restores the empty-subtree digest at every level
    tree = build_pruned([(5, 10)], 4)
    tree.set_balances({5: 0})
    assert tree.root_hash().hex() == D4_HEX
    assert tree.leaves == {5: 0}


def test_matches_brute_force_root():
    rng = random.Random(99)
    for _ in range(20):
        balances = {
            rng.randrange(1 << 6): rng.randrange(1, 1000)
            for _ in range(rng.randrange(1, 20))
        }
        tree = build_pruned(sorted(balances.items()), 6)
        assert tree.root_hash() == full_tree_root(balances, 6)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=2**40),
        max_size=24,
    )
)
def test_matches_brute_force_root_property(balances):
    tree = build_pruned(sorted(balances.items()), 8)
    assert tree.root_hash() == full_tree_root(balances, 8)


def test_duplicate_entries_rejected():
    with pytest.raises(ValueError):
        build_pruned([(3, 1), (3, 2)], 4)


def test_build_rejects_bad_entries_and_takes_any_iterable():
    with pytest.raises(NotStored):
        build_pruned([(9, 1), (2, 1)], 4, root_level=3, root_index=1)
    with pytest.raises(NegativeBalance):
        build_pruned([(9, 1), (12, -1)], 4)
    pairs = ((account, account + 1) for account in (7, 2, 12))
    assert build_pruned(pairs, 4).root_hash() == full_tree_root({7: 8, 2: 3, 12: 13}, 4)


def _inserted(entries, address_bits, root_level, root_index):
    """The incremental reference: one insert per entry, then one update."""
    tree = merkle.PrunedTree(address_bits, root_level, root_index)
    for account, _ in entries:
        tree.ensure_path(account)
    tree.set_balances(dict(entries))
    return tree


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sorted_build_equals_incremental_inserts(data):
    # One sorted pass makes the records, leaf order and root that inserting
    # the entries one by one makes.  Its count differs only by the default
    # tails of zero entries, which the pass digests and the inserts reuse.
    bits = data.draw(st.integers(1, 12), label="address_bits")
    level = data.draw(st.integers(1, bits), label="scope level")
    index = data.draw(st.integers(0, (1 << (bits - level)) - 1), label="scope index")
    inside = st.integers(index << level, ((index + 1) << level) - 1)
    accounts = data.draw(st.lists(inside, max_size=24, unique=True), label="accounts")
    balances = st.one_of(st.just(0), st.integers(1, 2**64 - 1))
    entries = [(a, data.draw(balances, label=f"balance {a}")) for a in accounts]
    built = build_pruned(entries, bits, root_level=level, root_index=index)
    inserted = _inserted(entries, bits, level, index)
    assert built._nodes == inserted._nodes
    assert list(built.leaves.items()) == list(inserted.leaves.items()) == entries
    assert built.root_hash() == inserted.root_hash()
    if all(balance for _, balance in entries):
        assert built.hashes == inserted.hashes
    assert built.refold() == (built.root_hash(), [])


def test_proof_roundtrip_and_tamper():
    entries = [(0, 5), (3, 9), (11, 2), (15, 40)]
    tree = build_pruned(entries, 4)
    root = tree.root_hash()
    for account, balance in entries:
        proof = tree.make_proof(account, base_height=7)
        assert proof.account == account
        assert proof.balance == balance
        assert proof.base_height == 7
        assert len(proof.siblings) == 4
        assert verify_proof(proof, root)

    proof = tree.make_proof(3, base_height=7)
    from dataclasses import replace

    assert not verify_proof(replace(proof, balance=proof.balance + 1), root)
    assert not verify_proof(replace(proof, account=2), root)
    bad = list(proof.siblings)
    bad[1] = bytes(32)
    assert not verify_proof(replace(proof, siblings=tuple(bad)), root)
    assert not verify_proof(proof, bytes(32))


def test_zero_balance_proof():
    tree = build_pruned([(3, 9)], 4)
    tree.ensure_path(12)
    proof = tree.make_proof(12, base_height=0)
    assert proof.balance == 0
    assert verify_proof(proof, tree.root_hash())


def test_proof_outside_its_address_space_fails():
    # a proof with n siblings folds only the low n bits of its account, and
    # every zero balance hashes to the shared default leaf
    tree = build_pruned([(3, 9)], 4)
    tree.ensure_path(12)
    root = tree.root_hash()
    empty, held = tree.make_proof(12, base_height=0), tree.make_proof(3, base_height=0)
    assert verify_proof(empty, root) and verify_proof(held, root)
    for proof in (empty, held):
        for account in (proof.account + 16, proof.account + (1 << 40), 16, -16):
            assert not verify_proof(replace(proof, account=account), root)
    assert not verify_proof(replace(held, account=-1), root)


def test_proof_balance_a_leaf_cannot_hold_fails():
    # a leaf record packs its balance in 8 bytes; anything outside
    # 0..2**64 - 1 is a bad proof, not an OverflowError
    tree = build_pruned([(3, 9)], 4)
    root = tree.root_hash()
    proof = tree.make_proof(3, base_height=0)
    assert verify_proof(proof, root)
    for balance in (-7, -1, 2**64, 2**64 + 9):
        assert not verify_proof(replace(proof, balance=balance), root)
    top = build_pruned([(3, 2**64 - 1)], 4)
    assert verify_proof(top.make_proof(3, base_height=0), top.root_hash())


def _plain_fold(proof, expected_root):
    """Whether the proof folds to expected_root, leaf to root over every
    sibling, with no memo and no skipped level."""
    account, balance = proof.account, proof.balance
    if not (0 <= account < 1 << len(proof.siblings) and 0 <= balance < 1 << 64):
        return False
    digest = leaf_digest(account, balance)
    for level, sibling in enumerate(proof.siblings):
        if (account >> level) & 1:
            digest = node_hash(sibling, digest)
        else:
            digest = node_hash(digest, sibling)
    return digest == expected_root


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_memoized_check_agrees_with_a_plain_fold(data):
    # Proofs of held and absent accounts made against two blocks, some
    # tampered (the balance, or one sibling below, at or above the memo's
    # level, set to a random or a default digest), are checked in a random
    # order against either block with one SpineMemo per block.  Every answer
    # is a plain fold's, so neither the memo nor folding a zero leaf from its
    # first non-default sibling changes one.
    bits = data.draw(st.integers(1, 8), label="address_bits")
    level = data.draw(st.integers(0, bits), label="memo level")
    space = st.integers(0, (1 << bits) - 1)
    first = data.draw(
        st.dictionaries(space, st.integers(1, 2**40), max_size=8), label="block 0"
    )
    second = first | data.draw(
        st.dictionaries(space, st.integers(0, 2**40), max_size=4), label="block 1"
    )
    trees = [build_pruned(sorted(ledger.items()), bits) for ledger in (first, second)]
    roots = [tree.root_hash() for tree in trees]
    memos = [SpineMemo(level), SpineMemo(level)]
    digest = st.one_of(
        st.binary(min_size=32, max_size=32), st.sampled_from(DEFAULT_DIGESTS[:bits])
    )
    checks = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, 1), st.integers(0, 1), space,
                st.sampled_from(("none", "balance", "sibling")),
                st.integers(0, bits - 1), digest,
            ),
            min_size=1, max_size=30,
        ),
        label="checks",
    )
    for made, checked, account, tamper, at, sibling in checks:
        trees[made].ensure_path(account)
        proof = trees[made].make_proof(account, made)
        if tamper == "balance":
            proof = replace(proof, balance=proof.balance ^ 1)
        elif tamper == "sibling":
            siblings = proof.siblings[:at] + (sibling,) + proof.siblings[at + 1 :]
            proof = replace(proof, siblings=siblings)
        expected = _plain_fold(proof, roots[checked])
        assert verify_proof(proof, roots[checked], memos[checked]) == expected
        assert verify_proof(proof, roots[checked]) == expected


def test_memo_skips_the_spine_a_verified_proof_shares():
    # Accounts 0x13 and 0x17 share portion 1 at level 4.  The first proof is
    # folded whole; the second, memoized at level 4, only up to the portion
    # root.  A zero leaf folds from its first non-default sibling (level 6
    # for 0x55).  A tampered spine sibling misses the memo and fails.
    tree = build_pruned([(0x13, 5), (0x17, 9), (0xA0, 3)], 8)
    root, memo = tree.root_hash(), SpineMemo(4)
    first, second = tree.make_proof(0x13, 0), tree.make_proof(0x17, 0)
    assert _digests_made(lambda: verify_proof(first, root, memo)) == (True, 9)
    assert _digests_made(lambda: verify_proof(second, root, memo)) == (True, 5)
    assert list(memo) == [1]
    tree.ensure_path(0x55)
    zero = tree.make_proof(0x55, 0)
    assert _digests_made(lambda: verify_proof(zero, root, memo)) == (True, 2)
    bad = replace(second, siblings=second.siblings[:6] + (bytes(32),) + second.siblings[7:])
    assert not verify_proof(bad, root, memo)
    assert not verify_proof(second, bytes(32), SpineMemo(4))


def test_make_proof_requires_materialized_path():
    tree = build_pruned([(3, 9)], 4)
    with pytest.raises(NotStored):
        tree.make_proof(12, base_height=0)
    assert tree.leaves == {3: 9}


def test_set_balances_requires_held_accounts():
    # an account not held (inside the scope or out of it) or a negative
    # balance anywhere in the batch changes nothing
    tree = build_pruned([(3, 9), (5, 2)], 4, root_level=3, root_index=0)
    kept, root = dict(tree._nodes), tree.root_hash()
    for batch, error in (
        ({3: 10, 6: 5}, NotStored),
        ({3: 10, 12: 5}, NotStored),
        ({3: 10, 5: -1}, NegativeBalance),
    ):
        with pytest.raises(error):
            tree.set_balances(batch)
        assert (tree.leaves, tree._nodes, tree.root_hash()) == ({3: 9, 5: 2}, kept, root)
    # balances as they are rehash nothing; a changed one rehashes its path
    assert _digests_made(lambda: tree.set_balances({3: 9, 5: 2}))[1] == 0
    assert tree.root_hash() == root
    assert _digests_made(lambda: tree.set_balances({3: 10, 5: 2}))[1] > 0
    assert tree.root_hash() != root


def test_scoped_tree_matches_global_subtree():
    entries = [(i, i + 1) for i in range(8, 16)]
    whole = build_pruned([(2, 77)] + entries, 6)
    scoped = build_pruned(entries, 6, root_level=3, root_index=1)
    assert scoped.covers(8) and scoped.covers(15)
    assert not scoped.covers(7) and not scoped.covers(16)
    assert scoped.root_hash() == _subtree_root(dict(entries), 6, 3, 1)
    assert whole.root_hash() == _subtree_root(dict([(2, 77)] + entries), 6, 6, 0)
    with pytest.raises(NotStored):
        build_pruned([(2, 77)], 6, root_level=3, root_index=1)  # out of range


def test_merge_union_and_order_independence():
    # Zero proofs of accounts a tree does not hold graft, in any order, to
    # the content ensure_path makes, and leave the root as it was.
    balances = {1: 10, 6: 20, 9: 30, 14: 40}
    absent = [0, 7, 8, 15]
    source = build_pruned(sorted(balances.items()), 4)
    root = source.root_hash()
    for account in absent:
        source.ensure_path(account)
    proofs = {a: source.make_proof(a, base_height=3) for a in absent}

    one = build_pruned(sorted(balances.items()), 4)
    for account in absent:
        one.merge_proof(proofs[account])
    other = build_pruned(sorted(balances.items()), 4)
    for account in reversed(absent):
        other.merge_proof(proofs[account])
    assert one.root_hash() == other.root_hash() == root
    assert one.leaves == other.leaves == source.leaves
    assert one._nodes == other._nodes == source._nodes

    # idempotent: merging again, or a held account's own proof, changes nothing
    kept = dict(one._nodes)
    one.merge_proof(proofs[7])
    one.merge_proof(source.make_proof(6, base_height=3))
    assert (one.leaves, one._nodes) == (source.leaves, kept)


def test_merge_rejects_tampered_proof():
    # The tree holds every non-zero balance of its scope, so a proof of an
    # account it does not hold must fold a zero leaf under all-zero
    # siblings.  Account 4 enters account 6's tail at (1, 2): leaf 5 lies
    # below the entry and (3, 1) above it, both absent.  A non-zero
    # balance, and valid proofs from worlds where either is funded, raise
    # and change nothing; the genuine proof still merges.
    tree = build_pruned([(1, 10), (6, 20)], 4)
    held, root = dict(tree.leaves), tree.root_hash()
    kept = dict(tree._nodes)
    proofs = []
    for extra in ([], [(5, 1)], [(12, 3)]):
        world = build_pruned(sorted([(1, 10), (6, 20)] + extra), 4)
        world.ensure_path(4)
        proofs.append(world.make_proof(4, base_height=1))
        assert verify_proof(proofs[-1], world.root_hash())
    good, *bad = proofs
    for proof in [replace(good, balance=999), *bad]:
        with pytest.raises(ProofConflict):
            tree.merge_proof(proof)
        assert (tree.leaves, tree._nodes, tree.root_hash()) == (held, kept, root)
    tree.merge_proof(good)
    assert tree.leaves == {1: 10, 6: 20, 4: 0} and tree.root_hash() == root


def test_merge_balance_conflict():
    tree = build_pruned([(1, 10)], 4)
    proof = tree.make_proof(1, base_height=1)
    tree.set_balances({1: 55})
    with pytest.raises(ProofConflict):
        tree.merge_proof(proof)
    assert tree.leaves == {1: 55}


def test_merge_into_scoped_tree():
    # A leaf committee's scoped tree grafts a zero proof made against the
    # whole tree, cut to the portion's root, and keeps its root.  A tree
    # missing the funded account 10 reads its subtree as all-zero, so that
    # account's proof contradicts it.
    entries = [(i, 100 + i) for i in range(8, 12)]
    whole = build_pruned(entries + [(40, 7)], 6)
    whole.ensure_path(13)
    zero, funded = (whole.make_proof(a, base_height=2) for a in (13, 10))
    scoped = build_pruned(entries, 6, root_level=3, root_index=1)
    root = scoped.root_hash()
    scoped.merge_proof(replace(zero, siblings=zero.siblings[:3]))
    assert scoped.leaves == dict(entries) | {13: 0}
    assert scoped.root_hash() == root == _subtree_root(dict(entries), 6, 3, 1)

    stale = build_pruned(
        [(8, 108), (9, 109), (11, 111)], 6, root_level=3, root_index=1
    )
    with pytest.raises(ProofConflict):
        stale.merge_proof(replace(funded, siblings=funded.siblings[:3]))
    assert stale.leaves == {8: 108, 9: 109, 11: 111}


def test_update_work_is_path_bounded():
    entries = [(i * 3, 50) for i in range(20)]
    tree = build_pruned(entries, 8)
    tree.root_hash()
    rng = random.Random(4)
    before = tree.hashes
    accounts = [a for a, _ in entries]
    updates = 25
    for _ in range(updates):
        tree.set_balances({rng.choice(accounts): rng.randrange(1, 100)})
    tree.root_hash()
    spent = tree.hashes - before
    assert 0 < spent <= updates * (8 + 1)


def test_cached_root_costs_nothing():
    tree = build_pruned([(5, 10), (9, 4)], 6)
    tree.root_hash()
    before = tree.hashes
    tree.root_hash()
    assert tree.hashes == before


def test_refold_reports_stale_cached_digests():
    tree = build_pruned([(5, 10), (9, 4)], 6)
    root = tree.root_hash()
    before = tree.hashes
    assert tree.refold() == (root, [])
    assert tree.hashes == before  # the re-fold counts nothing
    _corrupt_digest(tree, 2, 1, bytes(32))  # an inner node on account 5's path
    _corrupt_digest(tree, 0, 9, leaf_hash(9, 5))
    assert tree.refold() == (root, [(0, 9), (2, 1)])


def test_refold_flags_a_stray_tail_record():
    # a record at a leaf the tree does not hold: the balances build no such
    # position, so it is stale, whatever it holds
    tree = build_pruned([(5, 10), (9, 4)], 6)
    root = tree.root_hash()
    tree._nodes[104] = (40).to_bytes(8, "big") + DEFAULT_DIGESTS[0]
    assert tree.refold() == (root, [(0, 40)])


def test_refold_flags_a_deleted_inner_node():
    # accounts 5 and 9 part at level 4, so the nodes above them are inner;
    # a kept map without one of them is not the balances' structure
    tree = build_pruned([(5, 10), (9, 4)], 6)
    root = tree.root_hash()
    del tree._nodes[2]  # (5, 0)
    assert tree.refold() == (root, [(5, 0)])


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=1, max_value=10**6),
        min_size=1,
        max_size=16,
    ),
    st.randoms(use_true_random=False),
)
def test_merge_reconstructs_any_subset(balances, rng):
    # Zero proofs of any subset of the accounts a tree does not hold, merged
    # in any order, graft the content ensure_path makes; the root stays.
    tree = build_pruned(sorted(balances.items()), 6)
    root = tree.root_hash()
    absent = [account for account in range(64) if account not in balances]
    subset = rng.sample(absent, rng.randint(1, min(8, len(absent))))
    source, expected = tree.copy(), tree.copy()
    for account in subset:
        source.ensure_path(account)
        expected.ensure_path(account)
    proofs = [source.make_proof(account, base_height=0) for account in subset]
    rng.shuffle(proofs)
    for proof in proofs:
        tree.merge_proof(proof)
    assert (tree.leaves, tree._nodes) == (expected.leaves, expected._nodes)
    assert tree.root_hash() == root


def test_counters_match_digests_made(monkeypatch):
    # A tree counts cache misses only: every digest it computes, and nothing
    # else.  The tree must reach node_hash and leaf_hash through
    # the module globals for the wrappers (and per-layer tracing) to see them.
    source = build_pruned([(3, 40), (77, 5), (200, 9)], 8)
    for account in (4, 150):
        source.ensure_path(account)
    proofs = [source.make_proof(account, 0) for account in (4, 150)]
    made = [0]

    def counting(fn):
        def wrapper(first, second):
            made[0] += 1
            return fn(first, second)

        return wrapper

    monkeypatch.setattr(merkle, "node_hash", counting(merkle.node_hash))
    monkeypatch.setattr(merkle, "leaf_hash", counting(merkle.leaf_hash))
    tree = build_pruned([(3, 40), (90, 0), (200, 9)], 8)
    tree.root_hash()
    tree.set_balances({3: 41, 200: 0})  # a drain: its leaf digest is the default
    tree.ensure_path(17)
    tree.make_proof(17, 0)
    tree.set_balances({17: 2})
    tree.ensure_path(2)  # cuts account 3's tail at level 1
    tree.set_balances({2: 7})
    tree.root_hash()
    merged = build_pruned([(3, 40), (77, 5), (200, 9)], 8)
    for proof in proofs:
        merged.merge_proof(proof)
    merged.set_balances({4: 6})
    merged.root_hash()
    assert tree.hashes > 0 and merged.hashes > 0
    assert made == [tree.hashes + merged.hashes]


def _digests_made(fn):
    """fn()'s result and the node and leaf digests computed while it ran."""
    made = [0]

    def counting(original):
        def wrapper(first, second):
            made[0] += 1
            return original(first, second)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in ("node_hash", "leaf_hash"):
            patch.setattr(merkle, name, counting(getattr(merkle, name)))
        result = fn()
    return result, made[0]


def test_copy_computes_and_counts_nothing():
    # The copy computes no digest and counts none, holds what building the
    # same content from scratch holds, where a balance may be zero (held from
    # the start, or drained), and writes no map of its source.  Replaying the
    # source's update, it computes and counts its own digests, and keeps the
    # source's object for every record of equal bytes.
    cases = (
        (4, 1, [(17, 5), (18, 0), (25, 9)], [25]),
        (4, 1, [(20, 3)], []),
        (4, 0, [(6, 0), (9, 0)], []),
        (4, 0, [], []),
        (8, 0, [(3, 40), (90, 0), (200, 9)], [200]),
    )
    for level, index, entries, drained in cases:
        tree = build_pruned(entries, 8, root_level=level, root_index=index)
        tree.root_hash()
        tree.set_balances(dict.fromkeys(drained, 0))
        scratch = build_pruned(
            sorted(tree.leaves.items()), 8, root_level=level, root_index=index
        )
        root = scratch.root_hash()
        tree.root_hash()
        twin, made = _digests_made(tree.copy)
        assert made == 0 and twin.hashes == 0
        assert _digests_made(twin.root_hash) == (root, 0)
        assert twin.leaves == scratch.leaves
        _check_layout(twin)
        account = max(tree.leaves, default=index << level)
        balances = {account: tree.leaves.get(account, 0) + 3}
        tree.ensure_path(account)
        tree.set_balances(balances)
        updated = tree.root_hash()
        content, kept = dict(tree.leaves), dict(tree._nodes)
        twin.ensure_path(account)
        assert _digests_made(lambda: twin.set_balances(balances)) == (None, twin.hashes)
        assert twin.hashes > 0 and twin.root_hash() == updated != root
        equal = [key for key, record in twin._nodes.items() if kept.get(key) == record]
        assert equal and all(twin._nodes[key] is kept[key] for key in equal)
        account = index << level
        twin.ensure_path(account)
        twin.set_balances({account: twin.leaves[account] + 1})
        assert twin.root_hash() != updated
        assert (tree.leaves, tree._nodes, tree.root_hash()) == (content, kept, updated)
        assert all(tree._nodes[key] is record for key, record in kept.items())


def _subtree_root(balances, address_bits, level, index):
    """Digest of one global subtree, folded literally leaf by leaf."""
    row = [
        leaf_digest(account, balances.get(account, 0))
        for account in range(index << level, (index + 1) << level)
    ]
    for _ in range(level):
        row = [node_hash(row[k], row[k + 1]) for k in range(0, len(row), 2)]
    return row[0]


def test_a_source_maps_equal_records_are_stored_as_its_objects():
    # A tree built over a read-only source map that applies the same
    # transfers first (as the oracle's heap does: same keys, same records)
    # computes and counts its own digests, but stores the source's object for
    # every record or digest of equal bytes: from the build, through the
    # slice of a tail its ensure_path cuts after the source cut it, to the
    # inner digests above.  Unequal records are its own, and the source's
    # map is never written.
    entries = [(3, 40), (90, 7), (200, 9)]
    src = build_pruned(entries, 8)
    tree, made = _digests_made(lambda: build_pruned(entries, 8, source=src._nodes))
    assert tree.hashes == made > 0 and tree._nodes == src._nodes
    assert all(tree._nodes[key] is record for key, record in src._nodes.items())
    # 201 enters the tail of 200, whose balance stays: only the cut writes
    # 200's record
    txs = [Transfer(3, 201, 5), Transfer(90, 3, 2)]
    src.apply_transfers(txs)
    content, kept = dict(src.leaves), dict(src._nodes)
    more = _digests_made(lambda: tree.apply_transfers(txs))[1]
    assert more and tree.hashes == made + more
    assert (tree.leaves, tree._nodes, tree.root_hash()) == (content, kept, src.root_hash())
    base = 1 << 8
    cut, inner = base + 200, [(base + 201) >> level for level in range(1, 9)]
    assert len(kept[cut]) == 40 and all(len(kept[key]) == 32 for key in inner)
    assert all(tree._nodes[key] is record for key, record in kept.items())
    # 17 cuts the tail of 3 in the tree alone
    extra = _digests_made(lambda: tree.apply_transfers([Transfer(90, 17, 1)]))[1]
    assert extra and tree.hashes == made + more + extra
    assert tree.refold() == (tree.root_hash(), [])
    _check_layout(tree)
    equal = [key for key, record in tree._nodes.items() if kept.get(key) == record]
    unequal = tree._nodes.keys() - set(equal)
    assert cut in equal and unequal
    assert all(tree._nodes[key] is kept[key] for key in equal)
    ids = {id(record) for record in kept.values()}
    assert not any(id(tree._nodes[key]) in ids for key in unequal)
    assert (src.leaves, src._nodes) == (content, kept)
    assert all(src._nodes[key] is record for key, record in kept.items())


def _check_layout(tree):
    """The kept records follow the tail layout: one tail record per held
    leaf, ending at that leaf, with no stored sibling below its top; every
    other record is a 32-byte inner digest, and each record's parent is an
    inner node (or the record is the tree's top)."""
    base, nodes = 1 << tree.address_bits, tree._nodes
    tails = {key: record for key, record in nodes.items() if len(record) != 32}
    accounts = [int.from_bytes(record[:8], "big") for record in tails.values()]
    assert sorted(accounts) == sorted(tree.leaves)
    for top, record in tails.items():
        assert len(record) % 32 == 8
        leaf, height = base + int.from_bytes(record[:8], "big"), len(record) // 32 - 1
        assert leaf >> height == top
        for level in range(height):
            assert (leaf >> level) ^ 1 not in nodes
    for key in nodes:
        assert key == tree._top or len(nodes.get(key >> 1, b"")) == 32


def _check_proof(tree, account, expected_root):
    """The tree's proof of account folds to expected_root with the low bits
    of the account, one sibling a level below the tree's top; verify_proof
    accepts it exactly when the account lies inside that span, as every
    account of a full tree does."""
    proof = tree.make_proof(account, 0)
    digest = leaf_digest(account, proof.balance)
    for level, sibling in enumerate(proof.siblings):
        if (account >> level) & 1:
            digest = node_hash(sibling, digest)
        else:
            digest = node_hash(digest, sibling)
    assert digest == expected_root
    assert verify_proof(proof, expected_root) == (account >> tree.root_level == 0)


def _check_tree(tree, expected_root):
    _check_layout(tree)
    assert tree.root_hash() == expected_root
    for account in tree.leaves:
        _check_proof(tree, account, expected_root)
    assert tree.refold() == (expected_root, [])


def _check_merge(tree, proof):
    """Merge a good zero proof of an account the tree does not hold, after
    tampered copies that must each raise and change nothing: a non-zero
    balance, and a non-default digest at each sibling the tree holds no
    account under (below the proof's entry, or above it).  A sibling over
    held accounts is the tree's own content and is not read.  Merging the
    good proof twice grafts one zero leaf and keeps the root."""
    held, kept, root = dict(tree.leaves), dict(tree._nodes), tree.root_hash()
    account, bad = proof.account, [replace(proof, balance=1)]
    for level in range(tree.root_level):
        beside = (account >> level) ^ 1
        if not any(a >> level == beside for a in held):
            siblings = proof.siblings[:level] + (bytes(32),) + proof.siblings[level + 1 :]
            bad.append(replace(proof, siblings=siblings))
    for tampered in bad:
        with pytest.raises(ProofConflict):
            tree.merge_proof(tampered)
        assert (tree.leaves, tree._nodes, tree.root_hash()) == (held, kept, root)
    tree.merge_proof(proof)
    grafted = dict(tree._nodes)
    tree.merge_proof(proof)
    assert tree._nodes == grafted and tree.leaves == held | {account: 0}
    assert tree.root_hash() == root


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trees_track_the_full_tree(data):
    # Three trees follow one ledger: a full tree, a leaf committee's scoped
    # tree (zero proofs merged, through _check_merge, for accounts it has not
    # seen) and a storage node's copy of the scoped genesis tree (ensure_path
    # for them).  A step may flip one bit of a pool account, so that
    # ensure_path and merge_proof enter a held account's tail and cut it
    # where the paths part.
    bits = data.draw(st.integers(1, 8), label="address_bits")
    level = data.draw(st.integers(1, bits), label="portion level")
    index = data.draw(st.integers(0, (1 << (bits - level)) - 1), label="portion")
    pool = data.draw(
        st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=6, unique=True)
    )
    balances = data.draw(
        st.dictionaries(st.sampled_from(pool), st.integers(1, 2**40)), label="genesis"
    )

    full = build_pruned(sorted(balances.items()), bits)
    scoped = _leaf_tree(balances, bits, level, index)
    storage = scoped.copy()

    steps = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(pool),
                st.integers(-1, bits - 1),
                st.integers(0, 3),
                st.integers(1, 2**40),
            ),
            max_size=10,
        ),
        label="steps",
    )
    for account, flip, kind, amount in steps:
        if flip >= 0:
            account ^= 1 << flip
        balance = 0 if kind == 0 else amount  # kind 0 drains the account
        full.ensure_path(account)
        if scoped.covers(account) and account not in scoped.leaves:
            proof = full.make_proof(account, 0)
            _check_merge(scoped, replace(proof, siblings=proof.siblings[:level]))
        balances[account] = balance
        full.set_balances({account: balance})
        if scoped.covers(account):
            scoped.set_balances({account: balance})
            storage.ensure_path(account)
            storage.set_balances({account: balance})

        portion_root = _subtree_root(balances, bits, level, index)
        _check_tree(full, _subtree_root(balances, bits, bits, 0))
        _check_tree(scoped, portion_root)
        _check_tree(storage, portion_root)
        assert (storage.leaves, storage._nodes) == (scoped.leaves, scoped._nodes)
    assert full.root_hash() == full_tree_root(balances, bits)


def _leaf_tree(balances, bits, level, index):
    """A leaf committee's tree: the portion's genesis accounts, scoped."""
    entries = [(a, b) for a, b in sorted(balances.items()) if a >> level == index]
    return build_pruned(entries, bits, root_level=level, root_index=index)


def _spine(balances, bits, level, index):
    """The digests beside a portion's path from its root up to the state
    root, bottom first, folded literally."""
    return tuple(
        _subtree_root(balances, bits, t, (index >> (t - level)) ^ 1)
        for t in range(level, bits)
    )


def test_an_overdrawing_batch_changes_no_balance_digest_or_count():
    # The batch's first two transfers are sound and its third overdraws:
    # apply_transfers raises before it writes a balance, so at most the zero
    # leaf the batch touches has been materialized, with no digest made.
    tree = build_pruned([(3, 40), (90, 7), (200, 9)], 8)
    held, root, hashes = dict(tree.leaves), tree.root_hash(), tree.hashes
    txs = [
        Transaction(3, 17, 30, 1, 0),
        Transaction(90, 3, 7, 1, 1),
        Transaction(200, 90, 10, 1, 2),
    ]
    with pytest.raises(NegativeBalance):
        tree.apply_transfers(txs)
    assert {account: b for account, b in tree.leaves.items() if b} == held
    assert tree.leaves.keys() - held.keys() <= {17}
    assert (tree.hashes, tree.root_hash()) == (hashes, root)
    _check_layout(tree)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_transfers_matches_a_dict_ledger_and_the_update_loop(data):
    # A leaf committee's scoped tree (proofs grafted first) and a storage
    # node's copy of it (materialized by apply_transfers) each apply random
    # transfer batches with apply_transfers, next to a twin driven by
    # ensure_path and one set_balances of the batch's net covered balances.
    # The pool holds a leaf's sibling, so grafts and ensure_path enter held
    # tails, and a transfer may drain its source, zeroing the bottom of a
    # tail.  The portion root folded up the literal spine is the ledger's.
    bits = data.draw(st.integers(1, 8), label="address_bits")
    level = data.draw(st.integers(1, bits), label="portion level")
    index = data.draw(st.integers(0, (1 << (bits - level)) - 1), label="portion")
    pool = data.draw(
        st.lists(st.integers(0, (1 << bits) - 1), min_size=2, max_size=6, unique=True)
    )
    pool = sorted(set(pool) | {pool[0] ^ 1})
    ledger = data.draw(
        st.dictionaries(st.sampled_from(pool), st.integers(1, 2**40)), label="genesis"
    )
    genesis = build_pruned(sorted(ledger.items()), bits)
    for account in pool:
        genesis.ensure_path(account)
    in_portion = [a for a in pool if a >> level == index]

    leaf = _leaf_tree(ledger, bits, level, index)
    leaf_twin = _leaf_tree(ledger, bits, level, index)
    storage = leaf.copy()
    storage_twin = leaf_twin.copy()

    batches = data.draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(pool),
                    st.sampled_from(pool),
                    st.integers(0, 2**40),
                    st.booleans(),
                ),
                max_size=5,
            ),
            max_size=4,
        ),
        label="batches",
    )
    for nonce, steps in enumerate(batches):
        txs = []
        for src, dst, amount, drain in steps:
            # never overdraw: the plain ledger bounds each amount
            held = ledger.get(src, 0)
            tx = Transaction(src, dst, held if drain else min(amount, held), 1, nonce)
            ledger[src] = held - tx.amount
            ledger[dst] = ledger.get(dst, 0) + tx.amount
            txs.append(tx)
        touched = {a for tx in txs for a in (tx.src, tx.dst)}
        # proofs of untouched territory stay valid, so genesis proofs graft
        for tree in (leaf, leaf_twin):
            for account in sorted(touched):
                if tree.covers(account) and account not in tree.leaves:
                    proof = genesis.make_proof(account, 0)
                    tree.merge_proof(replace(proof, siblings=proof.siblings[:level]))
        covered = touched & set(in_portion)
        for account in sorted(covered):
            storage_twin.ensure_path(account)

        for tree in (leaf, storage):
            held, root = dict(tree.leaves), tree.root_hash()
            tree.apply_transfers(txs)
            # the tree now holds the covered accounts the batch touches, and
            # the rest only move by the batch; the root moves exactly when a
            # balance does
            assert tree.leaves.keys() == held.keys() | covered
            for account in held.keys() - touched:
                assert tree.leaves[account] == held[account]
            changed = any(tree.leaves[a] != held.get(a, 0) for a in covered)
            assert changed == (tree.root_hash() != root)
        for twin in (leaf_twin, storage_twin):
            twin.set_balances({account: ledger[account] for account in covered})

        portion_root = _subtree_root(ledger, bits, level, index)
        spine = _spine(ledger, bits, level, index)
        for tree, twin in ((leaf, leaf_twin), (storage, storage_twin)):
            _check_layout(tree)
            _check_layout(twin)
            assert tree.root_hash() == twin.root_hash() == portion_root
            assert tree.leaves == twin.leaves
        assert climb(index, portion_root, spine)[-1] == full_tree_root(ledger, bits)
        assert leaf.hashes == leaf_twin.hashes
        assert storage.hashes == storage_twin.hashes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_storage_node_matches_a_whole_space_reference(data):
    # A storage node keeps its portion's tree plus the spine above it.  Next
    # to a reference, a scoped twin of the portion beside the literal spine,
    # every replica checks the same roots, serves the same proofs (the
    # twin's, then the spine) and counts the same digests in every round:
    # the twin's after genesis, which a copy does not redo, plus one per
    # spine level re-folded from the lowest new input.  Its audit re-folds
    # the twin's digests plus the whole spine.  The portion is empty, holds
    # one account (its tail tops at the portion's root) or several; the
    # other portions may all be empty, leaving default spine digests; a
    # single portion (level == bits) has no spine.  A batch may move a
    # balance and move it back, which leaves it as it was and undigested.
    bits = data.draw(st.integers(1, 8), label="address_bits")
    level = data.draw(st.integers(1, bits), label="portion level")
    index = data.draw(st.integers(0, (1 << (bits - level)) - 1), label="portion")
    inside = st.integers(index << level, ((index + 1) << level) - 1)
    held = data.draw(
        st.one_of(
            st.just([]),
            st.lists(inside, min_size=1, max_size=1),
            st.lists(inside, min_size=2, max_size=8, unique=True),
        ),
        label="portion accounts",
    )
    others = data.draw(
        st.lists(st.integers(0, (1 << bits) - 1), max_size=6, unique=True),
        label="other accounts",
    )
    accounts = held + [a for a in others if a >> level != index]
    balances = data.draw(
        st.lists(st.integers(1, 2**40), min_size=len(accounts), max_size=len(accounts)),
        label="balances",
    )
    ledger = dict(zip(accounts, balances))
    rho = data.draw(st.integers(2, 3), label="rho")

    reference = _leaf_tree(ledger, bits, level, index)
    spine = DEFAULT_DIGESTS[level:bits]  # the reference's, all-zero until set
    spine_folds = 0

    def refold_spine(portion_changed, new_spine):
        nonlocal spine, spine_folds
        inputs = [t for t, (old, new) in enumerate(zip(spine, new_spine)) if old != new]
        lowest = 0 if portion_changed else min(inputs, default=len(spine))
        spine_folds += len(spine) - lowest
        spine = new_spine
        return climb(index, reference.root_hash(), spine)[-1]

    block = Block(0, GENESIS_PREV_HASH, full_tree_root(ledger, bits))
    genesis_spine = _spine(ledger, bits, level, index)
    changed = reference.root_hash() != DEFAULT_DIGESTS[level]
    genesis = reference.hashes
    assert refold_spine(changed, genesis_spine) == block.state_root
    leaf = _leaf_tree(ledger, bits, level, index)
    topo = build_topology(1 << (bits - level), 7, bits)
    positions = topo.spine_positions(index)
    published = list(zip(positions, genesis_spine))
    replicas = [StorageNode(topo, index, r, leaf, published, block) for r in range(rho)]
    with pytest.raises(StateDivergence):
        StorageNode(topo, index, 0, leaf, published, replace(block, state_root=bytes(32)))

    def check(height):
        for node in replicas:
            assert node.tree.hashes + genesis == reference.hashes + spine_folds
            assert node.tree.leaves == reference.leaves
            assert node.latest_block is block
        target = data.draw(inside, label="served account")
        for account in sorted(reference.leaves.keys() | {target}):
            reference.ensure_path(account)
            proof = reference.make_proof(account, height)
            proof = replace(proof, siblings=proof.siblings + spine)
            assert verify_proof(proof, block.state_root)
            for node in replicas:
                assert node.serve_proof(account) == proof
        audit = (len(reference.leaves), 0), _digests_made(reference.refold)[1] + len(spine)
        for node in replicas:
            assert _digests_made(node.audit_stored) == audit

    check(0)
    pool = sorted(set(accounts) | set(data.draw(st.lists(inside, min_size=1, max_size=3))))
    batches = data.draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(pool), st.sampled_from(pool), st.integers(0, 2**40)
                ),
                max_size=4,
            ),
            max_size=4,
        ),
        label="batches",
    )
    for height, steps in enumerate(batches, start=1):
        txs = []
        for nonce, (src, dst, amount) in enumerate(steps):
            amount = min(amount, ledger.get(src, 0))  # never overdraw
            ledger[src] = ledger.get(src, 0) - amount
            ledger[dst] = ledger.get(dst, 0) + amount
            txs.append(Transaction(src, dst, amount, height, nonce))
        block = Block(height, block_hash(block), full_tree_root(ledger, bits))
        # every changed spine digest, and any unchanged one the draw picks
        new_spine = _spine(ledger, bits, level, index)
        frontier = {
            pos: digest
            for pos, old, digest in zip(positions, spine, new_spine)
            if digest != old or data.draw(st.booleans())
        }
        routed = [tx for tx in txs if index in (tx.src >> level, tx.dst >> level)]
        held = dict(reference.leaves)
        reference.apply_transfers(routed)
        changed = any(b != held.get(a, 0) for a, b in reference.leaves.items())
        assert refold_spine(changed, new_spine) == block.state_root
        for node in replicas:
            node.apply_confirmed(routed, frontier, block)
        check(height)


def test_kept_records_grow_with_accounts_not_path_length():
    # At A = 40, 256 accounts a stride 2**32 apart share only their top 8
    # levels, so a tree keeping one digest per materialized node would keep
    # about 33 per account.  The tail layout keeps one record per account and
    # one digest per branch above, full or scoped, after grafts and serves.
    bits, n = 40, 256
    ledger = {i << 32: i + 1 for i in range(n)}
    full = build_pruned(sorted(ledger.items()), bits)
    twin = build_pruned(sorted(ledger.items()), bits)
    # a leaf committee's tree for portion (32, 5)
    portion = {(5 << 32) + (i << 24): i + 1 for i in range(n)}
    source = build_pruned(sorted(portion.items()), bits)
    scoped = build_pruned(sorted(portion.items()), bits, root_level=32, root_index=5)

    # graft a few zero accounts into held tails, and serve a few more
    for tree, giver, accounts in (
        (full, twin, [(7 << 32) + 9, (7 << 32) + (1 << 31)]),
        (scoped, source, [(5 << 32) + (3 << 24) + 1]),
    ):
        for account in accounts:
            giver.ensure_path(account)
            tree.merge_proof(giver.make_proof(account, 0))
    for tree, accounts in (
        (full, [1, (3 << 32) + 5, (1 << bits) - 1]),
        (scoped, [(5 << 32) + 77, (6 << 32) - 1]),
    ):
        for account in accounts:
            tree.ensure_path(account)
            _check_proof(tree, account, tree.root_hash())

    assert full.root_hash() == LedgerOracle(bits, ledger).root()
    assert climb(5, scoped.root_hash(), DEFAULT_DIGESTS[32:bits])[-1] == source.root_hash()
    for tree in (full, scoped):
        _check_layout(tree)
        assert tree.refold() == (tree.root_hash(), [])
        assert len(tree.leaves) >= n and len(tree._nodes) <= 3 * len(tree.leaves)

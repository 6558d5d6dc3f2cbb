"""Pruned balance trees: digests, proofs, materializing, and work accounting."""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from pipechain import merkle
from pipechain.merkle import (
    DEFAULT_DIGESTS,
    NegativeBalance,
    NotStored,
    SpineMemo,
    build_pruned,
    climb,
    leaf_digest,
    leaf_hash,
    node_hash,
    verify_proof,
)
from pipechain.ledger import GENESIS_PREV_HASH, Block, Transaction, Transfer, block_hash
from pipechain.oracle import LedgerOracle, NonNegativityViolation
from pipechain.pipeline import build_topology
from pipechain.storage import StateDivergence, StorageNode
from reference import corrupt_digest, full_tree_root

# frozen with raw hashlib, independently of the implementation
D0_HEX = "dda357c91ead42a1bd4ca061ae49480c54bee0e21a060e57341c220a23b6cbcd"
D1_HEX = "cc22c05f0b199beeb8c41bd3a25414717e4877f11cf7504ec3342d2f0e60f5e8"
D4_HEX = "5d1e3765c8d2f6ef2fc9d16782722defa162cf9861115bdc72b064dbac2f3896"
LEAF_5_10_HEX = "bbe850db3c397c18c370b3eb90df90620e019017fb77f55faaa2ee66a5bd1eb2"
ROOT_A4_5_10_HEX = "c88444b46ef723fdfdc07d2eb5f0394d7b3d384aaf26afe968d20bdd526b9504"
ROOT_A3_TWO_HEX = "ad894a1c247c188c5a7814008f646f2f542476d384a64841034763ebc83699b3"


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
    # a zero leaf hashes like the shared default, so draining an account
    # into one outside the tree restores the empty-subtree digest at every
    # level
    tree = build_pruned([(5, 10)], 5, root_level=4, root_index=0)
    tree.apply_transfers([Transfer(5, 20, 10)])
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
    proof = tree.make_proof(12, base_height=0)
    assert proof.balance == 0
    assert verify_proof(proof, tree.root_hash())


def test_proof_outside_its_address_space_fails():
    # a proof with n siblings folds only the low n bits of its account, and
    # every zero balance hashes to the shared default leaf
    tree = build_pruned([(3, 9)], 4)
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
    zero = tree.make_proof(0x55, 0)
    assert _digests_made(lambda: verify_proof(zero, root, memo)) == (True, 2)
    bad = replace(second, siblings=second.siblings[:6] + (bytes(32),) + second.siblings[7:])
    assert not verify_proof(bad, root, memo)
    assert not verify_proof(second, bytes(32), SpineMemo(4))


@pytest.mark.parametrize(
    "args, message",
    [
        ((0,), "address_bits must be in 1..64"),
        ((65,), "address_bits must be in 1..64"),
        ((4, 0), "root_level out of range"),
        ((4, 5), "root_level out of range"),
        ((4, 2, -1), "root_index out of range"),
        ((4, 2, 4), "root_index out of range"),
    ],
)
def test_pruned_tree_rejects_a_scope_out_of_range(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        merkle.PrunedTree(*args)


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


def test_update_work_is_path_bounded():
    entries = [(i * 3, 50) for i in range(20)]
    tree = build_pruned(entries, 8)
    rng = random.Random(4)
    before = tree.hashes
    accounts = [a for a, _ in entries]
    updates = 25
    for _ in range(updates):
        src, dst = rng.sample(accounts, 2)
        tree.apply_transfers([Transfer(src, dst, rng.randrange(1, 3))])
    spent = tree.hashes - before
    assert 0 < spent <= updates * 2 * (8 + 1)


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
    corrupt_digest(tree, 2, 1, bytes(32))  # an inner node on account 5's path
    corrupt_digest(tree, 0, 9, leaf_hash(9, 5))
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
    # slice of a tail that materializing an account cuts after the source
    # cut it, to the inner digests above.  Unequal records are its own, and the source's
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
    leaf, ending at that leaf and topping one level below where its account
    parts from the nearest other held account (at the tree's top when it is
    alone), with no stored sibling below its top; every other record is a
    32-byte inner digest, and each record's parent is an inner node (or the
    record is the tree's top)."""
    base, nodes = 1 << tree.address_bits, tree._nodes
    tails = {key: record for key, record in nodes.items() if len(record) != 32}
    accounts = [int.from_bytes(record[:8], "big") for record in tails.values()]
    assert sorted(accounts) == sorted(tree.leaves)
    for top, record in tails.items():
        assert len(record) % 32 == 8
        account, height = int.from_bytes(record[:8], "big"), len(record) // 32 - 1
        parted = [(account ^ other).bit_length() for other in tree.leaves if other != account]
        assert height == min(parted, default=tree.root_level + 1) - 1
        assert (base + account) >> height == top
        for level in range(height):
            assert ((base + account) >> level) ^ 1 not in nodes
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
    # apply_transfers raises before it materializes account 17 or writes a
    # balance, so the tree is exactly as it was, by value and by object.
    tree = build_pruned([(3, 40), (90, 7), (200, 9)], 8)
    before = _state(tree)
    txs = [
        Transaction(3, 17, 30, 1, 0),
        Transaction(90, 3, 7, 1, 1),
        Transaction(200, 90, 10, 1, 2),
    ]
    with pytest.raises(NegativeBalance):
        tree.apply_transfers(txs)
    _check_unchanged(tree, before)


def _state(tree):
    return dict(tree.leaves), dict(tree._nodes), tree.hashes


def _check_unchanged(tree, state):
    """The tree holds what `state` took of it: its balances in order, its
    kept records by value and by object, and its digest count."""
    leaves, nodes, hashes = state
    assert list(tree.leaves.items()) == list(leaves.items())
    assert (tree._nodes, tree.hashes) == (nodes, hashes)
    assert all(tree._nodes[key] is record for key, record in nodes.items())


def _fold_cost(tree, accounts):
    """The digests that rehashing these held accounts costs: a leaf digest
    for each non-zero balance and one a level of its tail, then one for each
    node above the tails' tops, once."""
    width, made, above = tree.address_bits + 1, 0, set()
    for account in accounts:
        key = (1 << tree.address_bits) + account
        while key not in tree._nodes:  # up to the top of its tail
            key >>= 1
        made += (tree.leaves[account] != 0) + width - key.bit_length()
        above.update(key >> k for k in range(1, key.bit_length() - tree._top.bit_length() + 1))
    return made + len(above)


def _check_written(tree, nodes):
    """Every record the tree wrote since it kept `nodes` is its source map's
    object where the source holds equal bytes at that key."""
    source = tree._source
    for key, record in tree._nodes.items():
        if nodes.get(key) is not record and source.get(key) == record:
            assert record is source[key], tree._position(key)


class TreeParties(RuleBasedStateMachine):
    """Four parties follow one history over a drawn address space and
    portion: a leaf committee's tree, built with the oracle's heap as its
    source map, that tree's storage copy, a whole-space tree over the heap
    too, and the oracle.  A step applies a sound batch to every party,
    refuses an overdrawing one in every party, serves proofs of held, absent
    and out-of-scope accounts, or copies the leaf tree afresh.  Accounts are
    drawn beside held ones, so that materializing enters and cuts held
    tails, and sources are often drained."""

    @initialize(data=st.data())
    def genesis(self, data):
        self.bits = bits = data.draw(st.integers(1, 8), label="address_bits")
        self.level = level = data.draw(st.integers(1, bits), label="portion level")
        self.index = index = data.draw(
            st.integers(0, (1 << (bits - level)) - 1), label="portion"
        )
        self.inside = st.integers(index << level, ((index + 1) << level) - 1)
        space = st.integers(0, (1 << bits) - 1)
        # how an account is drawn: held, beside a held one at a level, of the
        # portion or of the whole space
        self.pick = st.tuples(st.integers(0, 3), space, st.integers(0, bits - 1))
        amount = st.tuples(st.booleans(), st.integers(0, 2**40))  # drain, or at most
        self.transfer = st.tuples(self.pick, self.pick, amount)
        balances = st.one_of(st.just(0), st.integers(1, 2**40))
        accounts = st.one_of(self.inside, space)
        # the dict ledger: every account a party holds, in the order it came
        self.ledger = data.draw(st.dictionaries(accounts, balances, max_size=6), label="genesis")
        self.oracle = LedgerOracle(bits, self.ledger)
        heap, entries = self.oracle.heap, list(self.ledger.items())
        whole, made = _digests_made(lambda: build_pruned(entries, bits, source=heap))
        assert whole.hashes == made == _fold_cost(whole, whole.leaves)
        scoped = [(a, b) for a, b in entries if a >> level == index]
        leaf, made = _digests_made(
            lambda: build_pruned(scoped, bits, root_level=level, root_index=index, source=heap)
        )
        assert leaf.hashes == made == _fold_cost(leaf, leaf.leaves)
        for tree in (whole, leaf):
            _check_written(tree, {})
        self.trees = (whole, leaf, leaf)
        self.copy_leaf()

    def _account(self, pick):
        """A held account, one beside a held account's path, or any account
        of the portion or of the whole space, as `pick` draws it."""
        kind, account, level = pick
        held = sorted(self.ledger)
        if kind < 2 and held:
            return held[account % len(held)] ^ (kind << level)
        if kind == 2:  # into the portion
            return (self.index << self.level) + account % (1 << self.level)
        return account

    def _batch(self, data, ledger, size):
        """Up to `size` transfers that never overdraw `ledger`, which they
        update; an amount is often the whole balance, draining the source."""
        txs = []
        for pick_src, pick_dst, (drain, most) in data.draw(
            st.lists(self.transfer, max_size=size), label="transfers"
        ):
            src, dst = self._account(pick_src), self._account(pick_dst)
            held = ledger.get(src, 0)
            amount = held if drain else min(most, held)
            ledger[src] = held - amount
            ledger[dst] = ledger.get(dst, 0) + amount
            txs.append(Transfer(src, dst, amount))
        return txs

    @rule(data=st.data())
    def sound_batch(self, data):
        ledger = dict(self.ledger)
        txs = self._batch(data, ledger, 6)
        self.oracle.apply_sequence([txs], 1)  # first, as it is the trees' source
        for tree in self.trees:
            leaves, nodes, hashes = _state(tree)
            made = _digests_made(lambda: tree.apply_transfers(txs))[1]
            changed = [a for a, b in tree.leaves.items() if b != leaves.get(a, 0)]
            assert tree.hashes - hashes == made == _fold_cost(tree, changed)
            assert made <= len(changed) * (tree.root_level + 1)
            _check_written(tree, nodes)
        self.ledger = ledger

    @rule(data=st.data())
    def overdrawing_batch(self, data):
        # sound transfers, then one that overdraws an account every tree
        # covers, then any: no party takes any of them
        ledger = dict(self.ledger)
        txs = self._batch(data, ledger, 3)
        held = sorted(a for a in ledger if a >> self.level == self.index)
        covered = st.one_of(self.inside, st.sampled_from(held)) if held else self.inside
        src = data.draw(covered, label="overdrawn account")
        amount = ledger.get(src, 0) + data.draw(st.integers(1, 2**40), label="overdraft")
        dst = self._account(data.draw(self.pick, label="destination"))
        txs.append(Transfer(src, dst, amount))
        txs += self._batch(data, ledger, 2)
        states = [_state(tree) for tree in self.trees]
        balances, heap = dict(self.oracle.balances), dict(self.oracle.heap)
        with pytest.raises(NonNegativityViolation):
            self.oracle.apply_sequence([txs], 1)
        for tree, state in zip(self.trees, states):

            def refused():
                with pytest.raises(NegativeBalance):
                    tree.apply_transfers(txs)

            assert _digests_made(refused)[1] == 0
            _check_unchanged(tree, state)
        assert (self.oracle.balances, self.oracle.heap) == (balances, heap)
        assert all(self.oracle.heap[key] is record for key, record in heap.items())

    @rule(data=st.data())
    def prove(self, data):
        # the whole tree proves every account of the space, the literal fold
        # of its proof gives the oracle's root, and the scoped trees' proofs
        # with the same spine are the same; proving writes and makes nothing
        bits, level = self.bits, self.level
        outside = st.sampled_from((-1, 1 << bits, (1 << bits) + 1))
        pick = data.draw(st.one_of(self.pick, outside), label="proved account")
        account = pick if isinstance(pick, int) else self._account(pick)
        height = data.draw(st.integers(0, 9), label="base height")
        whole, leaf, storage = self.trees
        states = [_state(tree) for tree in self.trees]
        if 0 <= account < 1 << bits:
            proof, made = _digests_made(lambda: whole.make_proof(account, height))
            assert made == 0
            assert (proof.account, proof.base_height) == (account, height)
            assert proof.balance == self.ledger.get(account, 0)
            assert _plain_fold(proof, self.oracle.root())
            spine = proof.siblings[level:]
        else:
            with pytest.raises(NotStored):
                whole.make_proof(account, height)
        for tree in (leaf, storage):
            if account >> level == self.index:
                made = _digests_made(lambda: tree.make_proof(account, height, spine))
                assert made == (proof, 0)
            else:
                with pytest.raises(NotStored):
                    tree.make_proof(account, height, ())
        for tree, state in zip(self.trees, states):
            _check_unchanged(tree, state)

    @rule()
    def copy_leaf(self):
        whole, leaf, _ = self.trees
        storage, made = _digests_made(leaf.copy)
        assert made == storage.hashes == 0
        self.trees = (whole, leaf, storage)

    @invariant()
    def parties_agree_with_the_ledger(self):
        bits, ledger = self.bits, self.ledger
        whole, leaf, storage = self.trees
        root = full_tree_root(ledger, bits)
        portion_root = _subtree_root(ledger, bits, self.level, self.index)
        assert self.oracle.root() == root
        assert list(self.oracle.balances.items()) == list(ledger.items())
        for tree, expected in ((whole, root), (leaf, portion_root), (storage, portion_root)):
            assert _digests_made(tree.root_hash) == (expected, 0)
            assert tree.refold() == (expected, [])
            _check_layout(tree)
            held = [(a, b) for a, b in ledger.items() if a >> tree.root_level == tree.root_index]
            assert list(tree.leaves.items()) == held
        assert (storage.leaves, storage._nodes) == (leaf.leaves, leaf._nodes)
        assert all(storage._nodes[key] is record for key, record in leaf._nodes.items())


def test_tree_parties_follow_one_history():
    run_state_machine_as_test(
        TreeParties, settings=settings(max_examples=100, stateful_step_count=20, deadline=None)
    )


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
    # one digest per branch above, full or scoped, after zero accounts join.
    bits, n = 40, 256
    ledger = {i << 32: i + 1 for i in range(n)}
    full = build_pruned(sorted(ledger.items()), bits)
    # a leaf committee's tree for portion (32, 5)
    portion = {(5 << 32) + (i << 24): i + 1 for i in range(n)}
    source = build_pruned(sorted(portion.items()), bits)
    scoped = build_pruned(sorted(portion.items()), bits, root_level=32, root_index=5)

    # a few zero accounts join held tails, a few more join apart from them,
    # each credited nothing by a held account
    for tree, accounts in (
        (full, [(7 << 32) + 9, (7 << 32) + (1 << 31), 1, (3 << 32) + 5, (1 << bits) - 1]),
        (scoped, [(5 << 32) + (3 << 24) + 1, (5 << 32) + 77, (6 << 32) - 1]),
    ):
        for account in accounts:
            tree.apply_transfers([Transfer(min(tree.leaves), account, 0)])
            assert tree.leaves[account] == 0
            _check_proof(tree, account, tree.root_hash())

    assert full.root_hash() == LedgerOracle(bits, ledger).root()
    assert climb(5, scoped.root_hash(), DEFAULT_DIGESTS[32:bits])[-1] == source.root_hash()
    for tree in (full, scoped):
        _check_layout(tree)
        assert tree.refold() == (tree.root_hash(), [])
        assert len(tree.leaves) >= n and len(tree._nodes) <= 3 * len(tree.leaves)

"""Reference ledger: brute-force roots, sequential application, the
interleaving bound."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipechain.oracle as oracle_module
from pipechain.ledger import Transaction
from pipechain.merkle import DEFAULT_DIGESTS, build_pruned
from pipechain.oracle import LedgerOracle, NonNegativityViolation, check_interleavings
from reference import full_tree_root


def _tx(src, dst, amount):
    return Transaction(src, dst, amount, entry_round=1, nonce=0)


def test_empty_root_is_default():
    assert full_tree_root({}, 5) == DEFAULT_DIGESTS[5]
    assert LedgerOracle(5).root() == DEFAULT_DIGESTS[5]


def test_matches_pruned_tree():
    rng = random.Random(3)
    balances = {rng.randrange(128): rng.randrange(1, 500) for _ in range(40)}
    assert full_tree_root(balances, 7) == build_pruned(
        sorted(balances.items()), 7
    ).root_hash()
    assert LedgerOracle(7, balances).root() == full_tree_root(balances, 7)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda bits: st.tuples(
            st.just(bits),
            st.dictionaries(
                st.integers(0, (1 << bits) - 1),
                st.one_of(st.just(0), st.integers(1, 2**64 - 1)),
                max_size=24,
            ),
        )
    )
)
def test_genesis_pass_makes_the_heap_insertion_makes(case):
    # the sorted genesis pass against every account inserted into an empty
    # oracle by the per-sequence path, zero balances included
    bits, balances = case
    inserted = LedgerOracle(bits)
    inserted.balances.update(balances)
    inserted._rehash(balances, balances)
    genesis = LedgerOracle(bits, balances)
    assert genesis.heap == inserted.heap
    assert genesis.root() == full_tree_root(balances, bits)


def test_apply_sequence_and_supply():
    oracle = LedgerOracle(4, {1: 100, 2: 50})
    root = oracle.apply_sequence([_tx(1, 3, 30), _tx(3, 2, 10)])
    assert oracle.balance(1) == 70
    assert oracle.balance(3) == 20
    assert oracle.balance(2) == 60
    assert oracle.total_supply() == 150
    assert root == full_tree_root({1: 70, 2: 60, 3: 20}, 4)


def test_sequential_order_matters_for_validity():
    oracle = LedgerOracle(4, {1: 10})
    # credit arrives before the spend, so the sequence is valid
    oracle.apply_sequence([_tx(1, 2, 10), _tx(2, 3, 5)])
    assert oracle.balance(3) == 5


def _overdraw(balances, per_committee):
    """The bound's verdict: its message, or None when no interleaving overdraws."""
    try:
        check_interleavings(balances, per_committee, 7)
    except NonNegativityViolation as exc:
        return str(exc)
    return None


def test_interleaving_detector_fires_only_when_order_matters():
    balances = {1: 10, 4: 10}
    # 2 is funded only by the first committee's transfer, so the
    # interleaving that runs the second committee's spend first overdraws
    assert _overdraw(balances, [[_tx(1, 2, 10)], [_tx(2, 3, 10)]]) == (
        "round 7: an interleaving of the committees' sequences overdraws "
        "account 2 (balance 0, floor -10)"
    )
    # inside one committee the credit comes first in every interleaving
    assert _overdraw(balances, [[_tx(1, 2, 10), _tx(2, 3, 10)], [_tx(4, 6, 4)]]) is None
    assert _overdraw(balances, [[_tx(1, 2, 3), _tx(1, 5, 2)], [_tx(4, 6, 4)]]) is None
    # one account debited by two committees: the bound assumes no routing,
    # so each spend fits alone and only together do they overdraw
    assert _overdraw(balances, [[_tx(1, 2, 6)], [_tx(1, 3, 4)]]) is None
    assert "account 1 (balance 10, floor -11)" in _overdraw(
        balances, [[_tx(1, 2, 6)], [_tx(1, 3, 5)]]
    )
    # a committee's lowest point counts, not where it ends: the first one
    # spends 8 from account 1 and then credits it 8, and the second spends
    # 5 in between
    assert "account 1 (balance 10, floor -13)" in _overdraw(
        balances, [[_tx(1, 2, 8), _tx(4, 1, 8)], [_tx(1, 3, 5)]]
    )
    # every check left the balances it was given as they were
    assert balances == {1: 10, 4: 10}


def _interleavings(sequences):
    """Every merge of `sequences` that keeps each one's own order."""
    if not any(sequences):
        yield []
        return
    for k, seq in enumerate(sequences):
        if seq:
            rest = sequences[:k] + [seq[1:]] + sequences[k + 1 :]
            for tail in _interleavings(rest):
                yield [seq[0]] + tail


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_an_interleaving_that_never_overdraws_ends_at_the_committee_root(data):
    # the lemma the bound rests on, with fresh oracles as the reference:
    # transfers only move amounts, so an interleaving that applies at all
    # ends with the committee order's root, and a bound that sees no
    # overdraw sees every interleaving reach that root
    bits = data.draw(st.integers(2, 4), label="address_bits")
    account = st.integers(0, (1 << bits) - 1)
    genesis = data.draw(
        st.dictionaries(account, st.integers(1, 20), min_size=1, max_size=4),
        label="balances",
    )
    # mostly funded sources, so that the committee order often applies, a
    # credit from one committee can fund another's spend and two committees
    # can debit one account
    source = st.one_of(st.sampled_from(sorted(genesis)), account)
    transfer = st.builds(_tx, source, account, st.integers(1, 8)).filter(
        lambda tx: tx.src != tx.dst
    )
    per_committee = data.draw(
        st.lists(st.lists(transfer, min_size=1, max_size=3), min_size=2, max_size=3),
        label="committees",
    )
    roots, overdrawn = set(), 0
    for merged in _interleavings(per_committee):  # the committee order first
        try:
            roots.add(LedgerOracle(bits, genesis).apply_sequence(merged))
        except NonNegativityViolation:
            overdrawn += 1
    assert len(roots) <= 1
    # the bound is exact: it fires if and only if some interleaving overdraws
    assert (_overdraw(genesis, per_committee) is not None) == (overdrawn > 0)


def test_non_negativity_rejected_atomically():
    oracle = LedgerOracle(4, {1: 10})
    before = oracle.root()
    with pytest.raises(NonNegativityViolation):
        oracle.apply_sequence([_tx(1, 2, 4), _tx(1, 3, 7)])
    # the failed batch must not leave partial effects behind
    assert oracle.root() == before
    assert oracle.balance(1) == 10
    assert oracle.balance(2) == 0


def test_rejects_bad_genesis():
    with pytest.raises(ValueError):
        LedgerOracle(3, {8: 5})  # outside the address space
    with pytest.raises(ValueError):
        LedgerOracle(3, {2: -1})


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),
            st.integers(min_value=0, max_value=31),
            st.integers(min_value=1, max_value=60),
        ),
        max_size=12,
    )
)
def test_root_always_matches_brute_force(transfers):
    balances = {a: 100 for a in range(8)}
    oracle = LedgerOracle(5, dict(balances))
    txs = [_tx(s, d, v) for s, d, v in transfers if s != d]
    try:
        root = oracle.apply_sequence(txs)
    except NonNegativityViolation:
        return
    for tx in txs:
        balances[tx.src] = balances.get(tx.src, 0) - tx.amount
        balances[tx.dst] = balances.get(tx.dst, 0) + tx.amount
    assert root == full_tree_root(balances, 5)
    assert oracle.total_supply() == 800


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_root_matches_brute_force(data):
    bits = data.draw(st.integers(min_value=1, max_value=8), label="address_bits")
    last = (1 << bits) - 1
    # the edges of the address space get drawn as often as everything else
    position = st.one_of(st.just(0), st.just(last), st.integers(0, last))
    genesis = data.draw(
        st.dictionaries(position, st.integers(min_value=1, max_value=10**6), max_size=8),
        label="balances",
    )
    oracle = LedgerOracle(bits, genesis)
    model = dict(genesis)
    assert oracle.root() == full_tree_root(model, bits)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="sequences")):
        after = dict(model)
        txs = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
            funded = sorted(a for a, balance in after.items() if balance > 0)
            if not funded:
                break
            src = data.draw(st.sampled_from(funded))
            # a neighbour of a touched account lands inside its tail and cuts
            # it at the level where their paths part
            beside = st.builds(
                lambda account, level: account ^ (1 << level),
                st.sampled_from(sorted(after)),
                st.integers(0, bits - 1),
            )
            dst = data.draw(st.one_of(position, beside))
            if dst == src:
                continue
            # draining the whole balance returns the leaf to the default digest
            amount = data.draw(st.one_of(st.just(after[src]), st.integers(1, after[src])))
            txs.append(_tx(src, dst, amount))
            after[src] -= amount
            after[dst] = after.get(dst, 0) + amount
        root = oracle.apply_sequence(txs)
        assert root == oracle.root() == full_tree_root(after, bits)
        assert oracle.total_supply() == sum(genesis.values())
        model = after


def test_oracle_runs_at_widest_address_space():
    bits = 40
    last = (1 << bits) - 1
    oracle = LedgerOracle(bits, {0: 500, 1 << 39: 300, last: 200})
    oracle.apply_sequence(
        [_tx(0, 12345, 500), _tx(last, 0, 50), _tx(1 << 39, last - 1, 300)]
    )
    live = sorted((a, b) for a, b in oracle.balances.items() if b > 0)
    assert oracle.root() == build_pruned(live, bits).root_hash()
    # one leaf and one digest per level for each account ever touched
    assert len(oracle.heap) <= len(oracle.balances) * (bits + 1)


def test_neighbours_cut_tails_at_every_level():
    bits, account = 12, 0b101101001011
    for levels in (range(bits), reversed(range(bits))):
        oracle = LedgerOracle(bits, {account: 10**6})
        for level in levels:
            oracle.apply_sequence([_tx(account, account ^ (1 << level), level + 1)])
            assert oracle.root() == full_tree_root(oracle.balances, bits)
        # lands inside the tail of account ^ 2**11, below every other branch
        oracle.apply_sequence([_tx(account, account ^ (1 << 11) ^ 1, 7)])
        assert oracle.root() == full_tree_root(oracle.balances, bits)


def test_apply_digests_each_touched_position_once(monkeypatch):
    bits = 10
    oracle = LedgerOracle(bits, {5: 100, 600: 100, 601: 0})
    digests = []

    def counted(fn):
        def wrapper(first, second):
            digests.append(fn)
            return fn(first, second)

        return wrapper

    for name in ("node_hash", "leaf_digest"):
        monkeypatch.setattr(oracle_module, name, counted(getattr(oracle_module, name)))
    # 5 ^ 1 cuts the tail of 5, 600 ^ 8 lands beside the branch over 600, 601
    txs = [_tx(5, 4, 30), _tx(600, 608, 20), _tx(600, 601, 10)]
    oracle.apply_sequence(txs)
    touched = {a for tx in txs for a in (tx.src, tx.dst)}
    base = 1 << bits
    positions = {(base + a) >> level for a in touched for level in range(bits + 1)}
    assert len(digests) == len(positions)
    assert oracle.root() == full_tree_root(oracle.balances, bits)


def test_oracle_memory_grows_with_accounts_not_path_length():
    bits, n = 40, 256
    stride = (1 << bits) // n
    oracle = LedgerOracle(bits, {i * stride: 1000 for i in range(n)})
    # new accounts inside three tails, cut at the bottom, middle and top
    near = [(0, 1), (stride, stride + (1 << 20)), (5 * stride, 6 * stride - 1)]
    oracle.apply_sequence([_tx(src, dst, 10) for src, dst in near])
    live = sorted((a, b) for a, b in oracle.balances.items() if b > 0)
    assert oracle.root() == build_pruned(live, bits).root_hash()
    # one tail record per account and a digest per branch or chain node above
    assert len(oracle.heap) <= 3 * n

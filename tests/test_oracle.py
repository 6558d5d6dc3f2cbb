"""Reference ledger: brute-force roots, sequential application, forking."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipechain
import pipechain.oracle as oracle_module
from pipechain.ledger import Transaction
from pipechain.merkle import DEFAULT_DIGESTS, build_pruned
from pipechain.oracle import (
    LedgerOracle, NonNegativityViolation, full_tree_root, interleaving_mismatches
)


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


def test_interleaving_detector_fires_only_when_order_matters():
    base = LedgerOracle(4, {1: 10, 4: 10})
    shuffles = 20

    def mismatches(per_committee):
        expected = base.fork().apply_sequence([tx for seq in per_committee for tx in seq])
        return interleaving_mismatches(base, per_committee, expected, "t", shuffles)

    # 2 is funded only by the first committee's transfer, so every
    # interleaving that puts the second committee's spend first overdraws
    found = mismatches([[_tx(1, 2, 10)], [_tx(2, 3, 10)]])
    assert 0 < found < shuffles
    assert mismatches([[_tx(1, 2, 3), _tx(1, 5, 2)], [_tx(4, 6, 4)]]) == 0
    # every replay ran on a fork
    assert base.balances == {1: 10, 4: 10}


def test_non_negativity_rejected_atomically():
    oracle = LedgerOracle(4, {1: 10})
    before = oracle.root()
    with pytest.raises(NonNegativityViolation):
        oracle.apply_sequence([_tx(1, 2, 4), _tx(1, 3, 7)])
    # the failed batch must not leave partial effects behind
    assert oracle.root() == before
    assert oracle.balance(1) == 10
    assert oracle.balance(2) == 0


def test_fork_isolated():
    oracle = LedgerOracle(4, {1: 10})
    fork = oracle.fork()
    fork.apply_sequence([_tx(1, 2, 10)])
    assert oracle.balance(1) == 10
    assert fork.balance(1) == 0
    assert oracle.root() != fork.root()


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
def test_sparse_root_matches_brute_force_and_forks_are_independent(data):
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
        root_before, balances_before = oracle.root(), dict(oracle.balances)
        fork_root = oracle.fork().apply_sequence(txs)
        assert oracle.root() == root_before
        assert oracle.balances == balances_before
        assert oracle.apply_sequence(txs) == fork_root == full_tree_root(after, bits)
        assert oracle.root() == fork_root
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


def test_neighbours_cut_tails_at_every_level_and_forks_keep_theirs():
    bits, account = 12, 0b101101001011
    for levels in (range(bits), reversed(range(bits))):
        oracle = LedgerOracle(bits, {account: 10**6})
        for level in levels:
            oracle.apply_sequence([_tx(account, account ^ (1 << level), level + 1)])
            assert oracle.root() == full_tree_root(oracle.balances, bits)
        root, balances = oracle.root(), dict(oracle.balances)
        fork = oracle.fork()
        # lands inside the tail of account ^ 2**11, below every other branch
        fork.apply_sequence([_tx(account, account ^ (1 << 11) ^ 1, 7)])
        assert fork.root() == full_tree_root(fork.balances, bits)
        assert oracle.root() == root == full_tree_root(balances, bits)
        assert oracle.balances == balances


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


def test_oracle_imports_only_digest_primitives():
    # the oracle checks the tree code, so it must not share it
    path = Path(pipechain.__file__).parent / "oracle.py"
    imports = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module.split(".")[0] == "pipechain":
                names = sorted(a.name for a in node.names)
                imports.append((node.level, node.module, names))
        elif isinstance(node, ast.Import):
            imports.extend(
                (0, a.name, []) for a in node.names if a.name.split(".")[0] == "pipechain"
            )
    assert imports == [(1, "merkle", ["DEFAULT_DIGESTS", "leaf_digest", "node_hash"])]

"""Independent full-state replayer used to cross-check every emitted block.

Deliberately shares no tree machinery with the pipeline it checks: balances
live in a plain map and digests in a map from heap index (root 1, children of
i at 2i and 2i + 1, leaves from 2**address_bits) to digest, rehashed only
along changed root paths. The map holds only the positions a rehash has
written; every other position is the all-zero subtree of its level, so memory
grows with the accounts touched times address_bits, not with 2**address_bits.
"""

from __future__ import annotations

from .merkle import DEFAULT_DIGESTS, leaf_digest, node_hash


class NonNegativityViolation(Exception):
    """A confirmed sequence drove some balance below zero."""


def full_tree_root(balances, address_bits: int) -> bytes:
    """Root of the complete tree built literally, leaf by leaf.

    O(2**address_bits); meant as a test oracle for small address spaces.
    """
    level = [leaf_digest(a, balances.get(a, 0)) for a in range(1 << address_bits)]
    for _ in range(address_bits):
        level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


class LedgerOracle:
    """Replays confirmed sequences over the full ledger and tracks its root."""

    def __init__(self, address_bits: int, balances=None) -> None:
        self.address_bits = address_bits
        self.balances: dict[int, int] = dict(balances) if balances else {}
        for account, balance in self.balances.items():
            if not 0 <= account < (1 << address_bits):
                raise ValueError(f"account {account} out of range")
            if balance < 0:
                raise ValueError(f"negative initial balance for {account}")
        self.heap: dict[int, bytes] = {}
        if self.balances:
            self._rehash(self.balances.keys())

    def _rehash(self, accounts) -> None:
        heap = self.heap
        base = 1 << self.address_bits
        nodes = set()
        for account in accounts:
            heap[base + account] = leaf_digest(account, self.balances.get(account, 0))
            nodes.add((base + account) >> 1)
        level = 0
        while nodes:
            default = DEFAULT_DIGESTS[level]  # children of this pass sit at `level`
            parents = set()
            for i in nodes:
                heap[i] = node_hash(
                    heap.get(2 * i, default), heap.get(2 * i + 1, default)
                )
                if i > 1:
                    parents.add(i >> 1)
            nodes = parents
            level += 1

    def root(self) -> bytes:
        return self.heap.get(1, DEFAULT_DIGESTS[self.address_bits])

    def balance(self, account: int) -> int:
        return self.balances.get(account, 0)

    def apply_sequence(self, txs) -> bytes:
        """Execute one confirmed sequence in order; returns the new root.

        Raises NonNegativityViolation (leaving all state untouched) if any
        debit would overdraw, which a correct confirmation layer must have
        made impossible.
        """
        balances = self.balances
        pending: dict[int, int] = {}
        for tx in txs:
            debit = pending.get(tx.src, balances.get(tx.src, 0)) - tx.amount
            if debit < 0:
                raise NonNegativityViolation(
                    f"tx {tx.txid.hex()[:16]} overdraws account {tx.src}"
                )
            pending[tx.src] = debit
            pending[tx.dst] = pending.get(tx.dst, balances.get(tx.dst, 0)) + tx.amount
        if pending:
            balances.update(pending)
            self._rehash(pending.keys())
        return self.root()

    def total_supply(self) -> int:
        return sum(self.balances.values())

    def fork(self) -> "LedgerOracle":
        """Independent copy: the balance and digest maps are copied (their
        size grows with the accounts touched), the digest bytes are shared."""
        dup = LedgerOracle.__new__(LedgerOracle)
        dup.address_bits = self.address_bits
        dup.balances = dict(self.balances)
        dup.heap = dict(self.heap)
        return dup

"""Independent full-state replayer used to cross-check every emitted block.

Deliberately shares no tree machinery with the pipeline it checks: balances
live in a plain map and digests in a flat heap-indexed array over the whole
address space, rehashed only along changed root paths.
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
        heap: list[bytes] = [b""] * (1 << (address_bits + 1))
        for level in range(address_bits + 1):
            start = 1 << (address_bits - level)
            heap[start : start * 2] = [DEFAULT_DIGESTS[level]] * start
        self.heap = heap
        if self.balances:
            self._rehash(self.balances.keys())

    def _rehash(self, accounts) -> None:
        heap = self.heap
        base = 1 << self.address_bits
        nodes = set()
        for account in accounts:
            heap[base + account] = leaf_digest(account, self.balances.get(account, 0))
            nodes.add((base + account) >> 1)
        while nodes:
            parents = set()
            for i in nodes:
                heap[i] = node_hash(heap[2 * i], heap[2 * i + 1])
                if i > 1:
                    parents.add(i >> 1)
            nodes = parents

    def root(self) -> bytes:
        return self.heap[1]

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
        return self.heap[1]

    def total_supply(self) -> int:
        return sum(self.balances.values())

    def fork(self) -> "LedgerOracle":
        """Independent copy sharing no mutable state (digest bytes shared)."""
        dup = LedgerOracle.__new__(LedgerOracle)
        dup.address_bits = self.address_bits
        dup.balances = dict(self.balances)
        dup.heap = list(self.heap)
        return dup

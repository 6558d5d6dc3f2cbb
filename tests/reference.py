"""Literal references the tests check the library against: the full-tree
fold and the sequential rule."""

from pipechain.merkle import leaf_digest, node_hash


def full_tree_root(balances, address_bits: int) -> bytes:
    """Root of the complete tree built literally, leaf by leaf.

    O(2**address_bits); meant as a test oracle for small address spaces.
    """
    level = [leaf_digest(a, balances.get(a, 0)) for a in range(1 << address_bits)]
    for _ in range(address_bits):
        level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def apply_in_order(balances, txs):
    """The balances after running `txs` one at a time over `balances`, or
    None if one of them spends more than its source holds at that moment."""
    after = dict(balances)
    for tx in txs:
        if after.get(tx.src, 0) < tx.amount:
            return None
        after[tx.src] = after.get(tx.src, 0) - tx.amount
        after[tx.dst] = after.get(tx.dst, 0) + tx.amount
    return after

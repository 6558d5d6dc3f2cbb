"""Sparse Merkle state trees over a fixed address space.

Global state is a complete binary tree whose 2**address_bits leaves hold
account balances.  Trees here are *pruned*: only the root paths of accounts
of interest are materialized, and every pruned sibling is a placeholder
carrying the digest of the missing subtree.  All-zero subtrees share one
well-known digest per level, so an empty tree costs nothing and untouched
addresses still have provable (zero) balances.

Node coordinates are global ``(level, index)`` pairs with leaves at level 0;
a tree may be scoped to the subtree rooted at any such position.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


class MerkleError(Exception):
    pass


class NotStored(MerkleError):
    """The requested account is outside this tree or not materialized."""


class PathNotMaterialized(MerkleError):
    """An operation needed a node that has been pruned away."""


class ConflictingPlaceholder(MerkleError):
    """A merged proof disagrees with a digest this tree already holds."""


def leaf_hash(account: int, balance: int) -> bytes:
    """Digest of a leaf record: sha256("L" | account 8BE | balance 8BE)."""
    return hashlib.sha256(
        b"L" + account.to_bytes(8, "big") + balance.to_bytes(8, "big")
    ).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    """Digest of an internal node: sha256("N" | left | right). Order matters."""
    return hashlib.sha256(b"N" + left + right).digest()


class _DefaultDigests:
    """Digests of all-zero subtrees, one per level, grown on demand.

    Level 0 is the canonical zero leaf.  Zero balances always hash as
    leaf_hash(0, 0) regardless of position, which keeps this table
    position-independent and lets empty subtrees at equal height share
    a digest.
    """

    def __init__(self) -> None:
        self._levels = [leaf_hash(0, 0)]

    def __getitem__(self, level: int) -> bytes:
        levels = self._levels
        while len(levels) <= level:
            top = levels[-1]
            levels.append(node_hash(top, top))
        return levels[level]


DEFAULT_DIGESTS = _DefaultDigests()


def default_digests(address_bits: int) -> tuple[bytes, ...]:
    """The all-zero-subtree digest for every level 0..address_bits."""
    return tuple(DEFAULT_DIGESTS[level] for level in range(address_bits + 1))


def leaf_digest(account: int, balance: int) -> bytes:
    """Digest stored at a leaf; zero balances collapse to the shared default."""
    if balance == 0:
        return DEFAULT_DIGESTS[0]
    return leaf_hash(account, balance)


@dataclass
class HashCounter:
    """Tally of digest evaluations actually performed (cache misses only)."""

    internal: int = 0
    leaf: int = 0

    def total(self) -> int:
        return self.internal + self.leaf


@dataclass(frozen=True)
class BalanceProof:
    """Merkle path for one account balance against a specific block root."""

    account: int
    balance: int
    base_height: int
    siblings: tuple[bytes, ...]


def verify_proof(proof: BalanceProof, expected_root: bytes) -> bool:
    """Fold the proof leaf-to-root and compare against expected_root."""
    digest = leaf_digest(proof.account, proof.balance)
    account = proof.account
    for level, sibling in enumerate(proof.siblings):
        if (account >> level) & 1:
            digest = node_hash(sibling, digest)
        else:
            digest = node_hash(digest, sibling)
    return digest == expected_root


class PrunedTree:
    """Pruned view of the balance tree, optionally scoped to one subtree.

    The tree rooted at ``(root_level, root_index)`` covers accounts
    ``[root_index << root_level, (root_index + 1) << root_level)``.
    Materialized internal nodes always have both children present; a
    placeholder has no descendants.  Digests are cached per node and
    invalidated along the root path on every balance change, so a
    root_hash() after n updates costs at most n * root_level internal
    hashes.
    """

    def __init__(
        self,
        address_bits: int,
        root_level: int | None = None,
        root_index: int = 0,
        counters: HashCounter | None = None,
    ) -> None:
        if address_bits < 1:
            raise ValueError("address_bits must be >= 1")
        if root_level is None:
            root_level = address_bits
        if not 0 < root_level <= address_bits:
            raise ValueError("root_level out of range")
        if not 0 <= root_index < (1 << (address_bits - root_level)):
            raise ValueError("root_index out of range")
        self.address_bits = address_bits
        self.root_level = root_level
        self.root_index = root_index
        self.counters = counters if counters is not None else HashCounter()
        self.leaves: dict[int, int] = {}
        self.inner: set[tuple[int, int]] = set()
        self.placeholders: dict[tuple[int, int], bytes] = {
            (root_level, root_index): DEFAULT_DIGESTS[root_level]
        }
        self._digests: dict[tuple[int, int], bytes] = {}

    # -- inspection ---------------------------------------------------------

    def covers(self, account: int) -> bool:
        return account >> self.root_level == self.root_index

    def has_leaf(self, account: int) -> bool:
        return account in self.leaves

    def balance_of(self, account: int) -> int:
        try:
            return self.leaves[account]
        except KeyError:
            raise NotStored(f"account {account} not materialized") from None

    def structure(self):
        """Canonical content snapshot (ignores the digest cache)."""
        return (
            self.root_level,
            self.root_index,
            tuple(sorted(self.leaves.items())),
            tuple(sorted(self.inner)),
            tuple(sorted(self.placeholders.items())),
        )

    # -- digests ------------------------------------------------------------

    def _digest(self, level: int, index: int) -> bytes:
        pos = (level, index)
        cached = self._digests.get(pos)
        if cached is not None:
            return cached
        held = self.placeholders.get(pos)
        if held is not None:
            return held
        if level == 0:
            balance = self.leaves.get(index)
            if balance is None:
                raise PathNotMaterialized(f"leaf {index} is pruned")
            if balance:
                self.counters.leaf += 1
            digest = leaf_digest(index, balance)
        else:
            if pos not in self.inner:
                raise PathNotMaterialized(f"node {pos} is pruned")
            digest = node_hash(
                self._digest(level - 1, index * 2),
                self._digest(level - 1, index * 2 + 1),
            )
            self.counters.internal += 1
        self._digests[pos] = digest
        return digest

    def digest_at(self, level: int, index: int) -> bytes:
        """Digest of any present node (placeholder or materialized)."""
        return self._digest(level, index)

    def root_hash(self) -> bytes:
        return self._digest(self.root_level, self.root_index)

    def refold(self) -> tuple[bytes, list[tuple[int, int]]]:
        """Re-fold the tree from its leaf balances and placeholders without
        the digest cache, charging a throwaway counter.  Returns the re-folded
        root and the positions whose cached digest disagrees with it."""
        fresh = PrunedTree.__new__(PrunedTree)
        # the same leaves, inner and placeholders maps; a fresh cache
        vars(fresh).update(vars(self), counters=HashCounter(), _digests={})
        root = fresh.root_hash()
        stale = [
            pos for pos, digest in self._digests.items()
            if fresh._digests.get(pos) != digest
        ]
        return root, sorted(stale)

    def _invalidate_path(self, account: int) -> None:
        pop = self._digests.pop
        for level in range(self.root_level + 1):
            pop((level, account >> level), None)

    def _need_cover(self, account: int) -> None:
        if not self.covers(account):
            raise NotStored(f"account {account} outside stored range")

    # -- materialization ------------------------------------------------------

    def ensure_node(self, level: int, index: int) -> None:
        """Materialize the internal path down to (level, index), expanding
        all-zero placeholders along the way; the target itself is left as a
        placeholder (or whatever it already is).  Raises PathNotMaterialized
        when a non-default placeholder blocks the way, since its children
        cannot be reconstructed."""
        span = self.root_level - level
        if span < 0 or (index >> span) != self.root_index:
            raise NotStored(f"node ({level}, {index}) outside stored subtree")
        for lvl in range(self.root_level, level, -1):
            pos = (lvl, index >> (lvl - level))
            if pos in self.inner:
                continue
            held = self.placeholders.get(pos)
            if held is None:
                raise PathNotMaterialized(f"node {pos} is pruned")
            if held != DEFAULT_DIGESTS[lvl]:
                raise PathNotMaterialized(
                    f"cannot expand non-default placeholder at {pos}"
                )
            del self.placeholders[pos]
            self.inner.add(pos)
            self._digests[pos] = held
            child_level = lvl - 1
            left = (index >> (lvl - level)) * 2
            self.placeholders[(child_level, left)] = DEFAULT_DIGESTS[child_level]
            self.placeholders[(child_level, left + 1)] = DEFAULT_DIGESTS[child_level]

    def ensure_path(self, account: int) -> None:
        """Materialize account's leaf, treating pruned default territory as
        zero balances.  Raises PathNotMaterialized when the leaf itself is a
        non-default placeholder, since its balance is not known here."""
        self._need_cover(account)
        self.ensure_node(0, account)
        pos = (0, account)
        held = self.placeholders.get(pos)
        if held is not None:
            if held != DEFAULT_DIGESTS[0]:
                raise PathNotMaterialized(
                    f"cannot expand non-default placeholder at {pos}"
                )
            del self.placeholders[pos]
            self.leaves[account] = 0
            self._digests[pos] = held

    def set_placeholder(self, level: int, index: int, digest: bytes) -> None:
        """Replace the digest of an existing placeholder (a pruned subtree
        whose content is maintained elsewhere)."""
        pos = (level, index)
        if pos not in self.placeholders:
            raise PathNotMaterialized(f"no placeholder at {pos}")
        if self.placeholders[pos] == digest:
            return
        self.placeholders[pos] = digest
        pop = self._digests.pop
        for lvl in range(level + 1, self.root_level + 1):
            pop((lvl, index >> (lvl - level)), None)

    # -- updates --------------------------------------------------------------

    def apply_update(self, account: int, new_balance: int) -> None:
        self._need_cover(account)
        if account not in self.leaves:
            raise PathNotMaterialized(f"leaf {account} is pruned")
        if new_balance < 0:
            raise ValueError(f"negative balance for account {account}")
        if self.leaves[account] == new_balance:
            return
        self.leaves[account] = new_balance
        self._invalidate_path(account)

    # -- proofs ---------------------------------------------------------------

    def make_proof(self, account: int, base_height: int) -> BalanceProof:
        if not self.covers(account) or account not in self.leaves:
            raise NotStored(f"no proof material for account {account}")
        siblings = tuple(
            self._digest(level, (account >> level) ^ 1)
            for level in range(self.root_level)
        )
        return BalanceProof(account, self.leaves[account], base_height, siblings)

    def merge_proof(self, proof: BalanceProof) -> None:
        """Graft a verified proof's path into this tree.

        The proof must be sized for this subtree (root_level siblings).
        Everywhere the proof overlaps content already held, digests must
        agree and a materialized leaf must hold the proof's balance.  Digests
        never change here, so caches stay valid and merging the same proof
        twice is a no-op.
        """
        account = proof.account
        self._need_cover(account)
        if len(proof.siblings) != self.root_level:
            raise ValueError(
                f"proof has {len(proof.siblings)} siblings, tree needs {self.root_level}"
            )
        entry_level = None
        if (self.root_level, self.root_index) in self.placeholders:
            entry_level = self.root_level
        else:
            for level in range(self.root_level - 1, -1, -1):
                sib_pos = (level, (account >> level) ^ 1)
                held = self.placeholders.get(sib_pos)
                if held is not None and held != proof.siblings[level]:
                    raise ConflictingPlaceholder(
                        f"sibling digest mismatch at {sib_pos}"
                    )
                if (level, account >> level) in self.placeholders:
                    entry_level = level
                    break
        if entry_level is None:
            if self.leaves[account] != proof.balance:
                raise ConflictingPlaceholder(
                    f"balance mismatch for materialized account {account}"
                )
            return

        # Fold the proof up to the entry point and check it against the
        # digest already held for that pruned subtree.
        path = [leaf_digest(account, proof.balance)]
        if proof.balance:
            self.counters.leaf += 1
        for level in range(entry_level):
            below = path[level]
            sibling = proof.siblings[level]
            if (account >> level) & 1:
                path.append(node_hash(sibling, below))
            else:
                path.append(node_hash(below, sibling))
            self.counters.internal += 1
        entry_pos = (entry_level, account >> entry_level)
        if path[entry_level] != self.placeholders[entry_pos]:
            raise ConflictingPlaceholder(f"proof contradicts placeholder {entry_pos}")

        del self.placeholders[entry_pos]
        for level in range(entry_level, 0, -1):
            idx = account >> level
            self.inner.add((level, idx))
            self._digests[(level, idx)] = path[level]
            child_level = level - 1
            self.placeholders[(child_level, (account >> child_level) ^ 1)] = (
                proof.siblings[child_level]
            )
        self.leaves[account] = proof.balance
        self._digests[(0, account)] = path[0]


def build_pruned(
    entries,
    address_bits: int,
    *,
    root_level: int | None = None,
    root_index: int = 0,
    counters: HashCounter | None = None,
) -> PrunedTree:
    """Tree materializing exactly the given (account, balance) entries."""
    tree = PrunedTree(address_bits, root_level, root_index, counters)
    seen: set[int] = set()
    for account, balance in entries:
        if account in seen:
            raise ValueError(f"duplicate account {account}")
        seen.add(account)
        tree.ensure_path(account)
        tree.apply_update(account, balance)
    return tree

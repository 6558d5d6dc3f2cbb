"""Sparse Merkle state trees over a fixed address space.

Global state is a complete binary tree whose 2**address_bits leaves hold
account balances.  Trees here are *pruned*: only the root paths of accounts
of interest are materialized, and every pruned sibling is a placeholder
carrying the digest of the missing subtree.  All-zero subtrees share one
well-known digest per level, so an empty tree costs nothing, untouched
addresses still have provable (zero) balances and a default placeholder
needs no storage.

Positions are global ``(level, index)`` pairs with leaves at level 0; a tree
may be scoped to the subtree rooted at any such position.  Inside a tree a
node is keyed by its heap index ``(1 << (address_bits - level)) + index``
(root 1, children of k at 2k and 2k + 1), so every key at a level is larger
than every key at the levels above it.
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


def _all_zero_digests(levels: int) -> tuple[bytes, ...]:
    """Digests of all-zero subtrees, one per level 0..levels.

    Level 0 is the canonical zero leaf.  Zero balances always hash as
    leaf_hash(0, 0) regardless of position, which keeps this table
    position-independent and lets empty subtrees at equal height share
    a digest.
    """
    table = [leaf_hash(0, 0)]
    while len(table) <= levels:
        table.append(node_hash(table[-1], table[-1]))
    return tuple(table)


DEFAULT_DIGESTS = _all_zero_digests(64)  # accounts are 8-byte integers


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

    The tree's top ``(root_level, root_index)`` covers accounts
    ``[root_index << root_level, (root_index + 1) << root_level)``.  A node
    is *materialized* exactly when its heap key is in the digest map, which
    holds one digest per materialized leaf or internal node; ``leaves`` holds
    the balances of the materialized leaves.  The top and every child of a
    materialized node are *present*; a present node that is not materialized
    is a placeholder.  Only non-default placeholder digests are stored: a
    placeholder without an entry holds its level's all-zero digest.

    A balance change marks its leaf stale and a placeholder change marks its
    parent stale.  root_hash(), make_proof() and digest_at() first rehash
    every stale node and each ancestor once, bottom-up, so a root after n
    updates costs at most n * (root_level + 1) hashes.
    """

    def __init__(
        self,
        address_bits: int,
        root_level: int | None = None,
        root_index: int = 0,
        counters: HashCounter | None = None,
    ) -> None:
        if not 0 < address_bits < len(DEFAULT_DIGESTS):
            raise ValueError(f"address_bits must be in 1..{len(DEFAULT_DIGESTS) - 1}")
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
        self._top = (1 << (address_bits - root_level)) + root_index
        self._base = 1 << address_bits  # key of leaf 0
        self._digests: dict[int, bytes] = {}
        self._placeholders: dict[int, bytes] = {}  # non-default digests only
        self._stale: set[int] = set()

    # -- inspection ---------------------------------------------------------

    def covers(self, account: int) -> bool:
        return account >> self.root_level == self.root_index

    def balance_of(self, account: int) -> int:
        try:
            return self.leaves[account]
        except KeyError:
            raise NotStored(f"account {account} not materialized") from None

    def snapshot(self) -> tuple[dict[int, int], dict[tuple[int, int], bytes]]:
        """The tree's content: leaf balances by account, and the digest of
        every non-default placeholder by global (level, index)."""
        return dict(self.leaves), {
            self._position(key): digest for key, digest in self._placeholders.items()
        }

    def _position(self, key: int) -> tuple[int, int]:
        width = key.bit_length() - 1
        return self.address_bits - width, key - (1 << width)

    def _present_key(self, level: int, index: int) -> int:
        span = self.root_level - level
        if 0 <= span <= self.root_level and index >> span == self.root_index:
            key = (1 << (self.address_bits - level)) + index
            if key == self._top or key >> 1 in self._digests:
                return key
        raise PathNotMaterialized(f"node ({level}, {index}) is not present")

    # -- digests ------------------------------------------------------------

    def _fold(self, keys, out: dict[int, bytes], counters: HashCounter) -> None:
        """Digest every key in `keys` and each of its ancestors up to the top
        once, bottom-up, into `out`.  A node's materialized children are
        read from `out`, its placeholders from the tree."""
        rows: dict[int, set[int]] = {}
        for key in keys:
            rows.setdefault(key.bit_length(), set()).add(key)
        leaves, base, widest = self.leaves, self._base, self.address_bits + 1
        row = rows.pop(widest, ())
        for key in row:
            balance = leaves[key - base]
            if balance:
                counters.leaf += 1
            out[key] = leaf_digest(key - base, balance)
        get, held = out.get, self._placeholders.get
        for level in range(1, self.root_level + 1):
            row = {key >> 1 for key in row}
            row.update(rows.get(widest - level, ()))
            default = DEFAULT_DIGESTS[level - 1]
            for key in row:
                left, right = 2 * key, 2 * key + 1
                out[key] = node_hash(
                    get(left) or held(left) or default,
                    get(right) or held(right) or default,
                )
            counters.internal += len(row)

    def _flush(self) -> None:
        if self._stale:
            stale, self._stale = self._stale, set()
            self._fold(stale, self._digests, self.counters)

    def _held(self, key: int, level: int) -> bytes:
        """Digest of a present node."""
        held = self._digests.get(key) or self._placeholders.get(key)
        return held or DEFAULT_DIGESTS[level]

    def digest_at(self, level: int, index: int) -> bytes:
        """Digest of any present node (placeholder or materialized)."""
        key = self._present_key(level, index)
        self._flush()
        return self._held(key, level)

    def root_hash(self) -> bytes:
        self._flush()
        return self._held(self._top, self.root_level)

    def refold(self) -> tuple[bytes, list[tuple[int, int]]]:
        """Re-fold the tree from its leaf balances and placeholders into a
        fresh map, charging a throwaway counter, once pending rehashes are
        done.  Returns the re-folded root and the positions whose kept
        digest disagrees with it."""
        self._flush()
        fresh: dict[int, bytes] = {}
        self._fold(self._digests, fresh, HashCounter())
        kept = self._digests.items()
        stale = [self._position(key) for key, digest in kept if fresh[key] != digest]
        root = fresh.get(self._top) or self._held(self._top, self.root_level)
        return root, sorted(stale)

    # -- materialization ------------------------------------------------------

    def ensure_node(self, level: int, index: int) -> None:
        """Materialize the internal path down to (level, index), expanding
        all-zero placeholders along the way; the target itself is left as a
        placeholder (or whatever it already is).  Raises PathNotMaterialized
        when a non-default placeholder blocks the way, since its children
        cannot be reconstructed."""
        span = self.root_level - level
        if not 0 <= span <= self.root_level or index >> span != self.root_index:
            raise NotStored(f"node ({level}, {index}) outside stored subtree")
        key = (1 << (self.address_bits - level)) + index
        digests = self._digests
        if key == self._top or key >> 1 in digests:
            return
        for lvl in range(self.root_level, level, -1):
            node = key >> (lvl - level)
            if node in digests:
                continue
            if node in self._placeholders:
                raise PathNotMaterialized(
                    f"cannot expand non-default placeholder at {self._position(node)}"
                )
            digests[node] = DEFAULT_DIGESTS[lvl]

    def ensure_path(self, account: int) -> None:
        """Materialize account's leaf, treating pruned default territory as
        zero balances.  Raises PathNotMaterialized when the leaf itself is a
        non-default placeholder, since its balance is not known here."""
        if account in self.leaves:
            return
        self.ensure_node(0, account)
        key = self._base + account
        if key in self._placeholders:
            raise PathNotMaterialized(f"cannot expand non-default leaf {account}")
        self._digests[key] = DEFAULT_DIGESTS[0]
        self.leaves[account] = 0

    def set_placeholder(self, level: int, index: int, digest: bytes) -> None:
        """Replace the digest of an existing placeholder (a pruned subtree
        whose content is maintained elsewhere)."""
        key = self._present_key(level, index)
        if key in self._digests:
            raise PathNotMaterialized(f"no placeholder at ({level}, {index})")
        default = DEFAULT_DIGESTS[level]
        if (self._placeholders.get(key) or default) == digest:
            return
        self._placeholders.pop(key, None)
        if digest != default:
            self._placeholders[key] = digest
        if key != self._top:
            self._stale.add(key >> 1)

    # -- updates --------------------------------------------------------------

    def apply_update(self, account: int, new_balance: int) -> None:
        leaves = self.leaves
        if account not in leaves:
            if not self.covers(account):
                raise NotStored(f"account {account} outside stored range")
            raise PathNotMaterialized(f"leaf {account} is pruned")
        if new_balance < 0:
            raise ValueError(f"negative balance for account {account}")
        if leaves[account] != new_balance:
            leaves[account] = new_balance
            self._stale.add(self._base + account)

    def apply_transfers(self, txs) -> None:
        """Debit each transfer's source and credit its destination wherever
        this tree holds the account as a leaf; other accounts are left as
        they are."""
        leaves = self.leaves
        for tx in txs:
            if tx.src in leaves:
                self.apply_update(tx.src, leaves[tx.src] - tx.amount)
            if tx.dst in leaves:
                self.apply_update(tx.dst, leaves[tx.dst] + tx.amount)

    # -- proofs ---------------------------------------------------------------

    def make_proof(self, account: int, base_height: int) -> BalanceProof:
        if account not in self.leaves:
            raise NotStored(f"no proof material for account {account}")
        self._flush()
        key = self._base + account
        get, held, defaults = self._digests.get, self._placeholders.get, DEFAULT_DIGESTS
        siblings = tuple(
            get((key >> level) ^ 1) or held((key >> level) ^ 1) or defaults[level]
            for level in range(self.root_level)
        )
        return BalanceProof(account, self.leaves[account], base_height, siblings)

    def merge_proof(self, proof: BalanceProof) -> None:
        """Graft a verified proof's path into this tree.

        The proof must be sized for this subtree (root_level siblings).
        Everywhere the proof overlaps content already held, digests must
        agree and a materialized leaf must hold the proof's balance.  No
        digest changes here, so nothing turns stale and merging the same
        proof twice is a no-op.
        """
        account, siblings = proof.account, proof.siblings
        if not self.covers(account):
            raise NotStored(f"account {account} outside stored range")
        if len(siblings) != self.root_level:
            raise ValueError(
                f"proof has {len(siblings)} siblings, tree needs {self.root_level}"
            )
        digests, held, defaults = self._digests, self._placeholders, DEFAULT_DIGESTS
        leaf = self._base + account
        # walk down the materialized path to the placeholder the proof enters
        for entry_level in range(self.root_level, -1, -1):
            if leaf >> entry_level not in digests:
                break
            if entry_level == 0:
                if self.leaves[account] != proof.balance:
                    raise ConflictingPlaceholder(f"balance mismatch for {account}")
                return
            level, sibling = entry_level - 1, (leaf >> (entry_level - 1)) ^ 1
            kept = held.get(sibling) or defaults[level]
            if sibling not in digests and kept != siblings[level]:
                raise ConflictingPlaceholder(
                    f"sibling digest mismatch at {self._position(sibling)}"
                )

        # fold the proof up to the entry and check it against the digest held
        path = [leaf_digest(account, proof.balance)]
        if proof.balance:
            self.counters.leaf += 1
        for level in range(entry_level):
            below, sibling = path[level], siblings[level]
            if (account >> level) & 1:
                path.append(node_hash(sibling, below))
            else:
                path.append(node_hash(below, sibling))
        self.counters.internal += entry_level
        entry = leaf >> entry_level
        if path[entry_level] != (held.get(entry) or defaults[entry_level]):
            raise ConflictingPlaceholder(f"proof contradicts {self._position(entry)}")

        held.pop(entry, None)
        for level in range(entry_level, 0, -1):
            digests[leaf >> level] = path[level]
            if siblings[level - 1] != defaults[level - 1]:
                held[(leaf >> (level - 1)) ^ 1] = siblings[level - 1]
        self.leaves[account] = proof.balance
        digests[leaf] = path[0]


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
    for account, balance in entries:
        if account in tree.leaves:
            raise ValueError(f"duplicate account {account}")
        tree.ensure_path(account)
        tree.apply_update(account, balance)
    return tree

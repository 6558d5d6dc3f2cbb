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


class NegativeBalance(MerkleError):
    """An update would drive a held balance below zero."""


# hash states that have absorbed each domain tag; a digest resumes a copy
_LEAF_STATE = hashlib.sha256(b"L")
_NODE_STATE = hashlib.sha256(b"N")


def leaf_hash(account: int, balance: int) -> bytes:
    """Digest of a leaf record: sha256("L" | account 8BE | balance 8BE)."""
    state = _LEAF_STATE.copy()
    state.update(account.to_bytes(8, "big"))
    state.update(balance.to_bytes(8, "big"))
    return state.digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    """Digest of an internal node: sha256("N" | left | right). Order matters."""
    state = _NODE_STATE.copy()
    state.update(left)
    state.update(right)
    return state.digest()


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
# a zero leaf's tail digests for each level of the tail's top
_DEFAULT_RUNS = tuple(b"".join(DEFAULT_DIGESTS[: h + 1]) for h in range(65))


def _level_digest(record: bytes, level: int) -> bytes:
    """A tail record's digest `level` levels above its leaf, or an inner digest."""
    start = len(record) % 32 + 32 * level
    return record[start : start + 32]


def leaf_digest(account: int, balance: int) -> bytes:
    """Digest stored at a leaf; zero balances collapse to the shared default."""
    if balance == 0:
        return DEFAULT_DIGESTS[0]
    return leaf_hash(account, balance)


@dataclass
class HashCounter:
    """Tally of digest evaluations actually performed (cache misses only);
    a copy() is charged the digests it stands in for."""

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


def climb(account: int, digest: bytes, siblings) -> list[bytes]:
    """Digests up an account's path from its leaf digest, one sibling a level."""
    path = [digest]
    for level, sibling in enumerate(siblings):
        if (account >> level) & 1:
            digest = node_hash(sibling, digest)
        else:
            digest = node_hash(digest, sibling)
        path.append(digest)
    return path


class SpineMemo(dict):
    """Spines of proofs verified against one root: by the index of a proof's
    node at `level`, that node's digest and the siblings above it."""

    def __init__(self, level: int) -> None:
        super().__init__()
        self.level = level


def verify_proof(
    proof: BalanceProof, expected_root: bytes, memo: SpineMemo | None = None
) -> bool:
    """Fold the proof leaf-to-root and compare against expected_root.

    A proof with n siblings covers accounts 0..2**n - 1 only; any other
    account would fold with just its low n bits, so it fails here, as do a
    balance a leaf record cannot hold (outside 0..2**64 - 1) and a field of
    the wrong type.  A zero leaf folds from its first non-default sibling.
    With a SpineMemo of proofs checked against expected_root, a proof that
    matches an entry up to memo.level skips folding the spine above it."""
    account, balance, siblings = proof.account, proof.balance, proof.siblings
    if not (
        type(account) is type(balance) is int and type(siblings) is tuple
        and 0 <= account < 1 << len(siblings) <= 1 << 64 and 0 <= balance < 1 << 64
        and {*map(type, siblings)} <= {bytes}
    ):
        return False
    level, defaults = 0, DEFAULT_DIGESTS
    # a zero leaf: two default children make the next level's default
    while not balance and level < len(siblings) and siblings[level] == defaults[level]:
        level += 1
    digest = leaf_hash(account, balance) if balance else defaults[level]
    split = len(siblings) if memo is None else memo.level
    if not level <= split < len(siblings):
        return climb(account >> level, digest, siblings[level:])[-1] == expected_root
    digest = climb(account >> level, digest, siblings[level:split])[-1]
    key, seen = account >> split, (digest, siblings[split:])
    if memo.get(key) != seen and climb(key, *seen)[-1] != expected_root:
        return False
    memo[key] = seen
    return True


class PrunedTree:
    """Pruned view of the balance tree, optionally scoped to one subtree.

    The tree's top ``(root_level, root_index)`` covers accounts
    ``[root_index << root_level, (root_index + 1) << root_level)``.  The top
    and every child of a materialized node are *present*; a present node
    that is not materialized is a placeholder, stored only if non-default.
    ``leaves`` holds the held balances.  Each held leaf ends a *tail*, the
    materialized nodes up to a top below which every sibling is an absent
    default.  One map holds by heap key the digest of every other (*inner*)
    materialized node and, at each tail's top, the account (8 bytes) and the
    tail's digests (32 bytes a level, leaf first), so memory grows with the
    accounts held, not times the path length.

    A balance change marks its leaf stale and a placeholder change marks its
    parent stale.  root_hash(), make_proof() and digest_at() first rehash
    every stale node (a leaf with its whole tail) and each ancestor once,
    bottom-up, so a root after n updates costs at most n * (root_level + 1)
    hashes.
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
        self._width = address_bits + 1  # bit length of a leaf key
        self._nodes: dict[int, bytes] = {}  # inner digests and tail records
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
        level = self._width - key.bit_length()
        return level, key - (self._base >> level)

    def _deepest(self, key: int) -> tuple[int | None, int | None]:
        """The deepest materialized node on the way from the top to node
        `key` (key included) and the top of the tail holding it (None for an
        inner node); (None, None) when the top is not materialized."""
        nodes, step, top = self._nodes, key, self._top
        while step not in nodes:  # the nearest stored ancestor
            if step <= top:
                return None, None
            step >>= 1
        record = nodes[step]
        if len(record) == 32:
            return step, None
        leaf = self._base + int.from_bytes(record[:8], "big")
        parted = ((leaf >> (self._width - key.bit_length())) ^ key).bit_length()
        return key >> parted, step

    def _present(self, level: int, index: int) -> tuple[int, int | None, int | None]:
        """A present node's key and _deepest() of it."""
        span = self.root_level - level
        if 0 <= span <= self.root_level and index >> span == self.root_index:
            key = (1 << (self.address_bits - level)) + index
            node, tail = self._deepest(key)
            if key == self._top or (node is not None and node >= key >> 1):
                return key, node, tail
        raise PathNotMaterialized(f"node ({level}, {index}) is not present")

    # -- digests ------------------------------------------------------------

    def _read(self, key: int, level: int, nodes) -> bytes:
        """Digest of an inner node or tail top in `nodes`, or of a placeholder."""
        digest = nodes.get(key) or self._placeholders.get(key) or DEFAULT_DIGESTS[level]
        return digest[-32:]

    def _fold(self, keys, nodes, counters: HashCounter) -> None:
        """Digest every key in `keys` (leaves and inner nodes) and each of its
        ancestors once, bottom-up, into `nodes`, a leaf with its whole tail.
        Materialized children are read from `nodes`, placeholders from the tree."""
        rows: dict[int, set[int]] = {}
        leaves, base, defaults = self.leaves, self._base, DEFAULT_DIGESTS
        for key in keys:
            if key >= base:
                account, top = key - base, key
                while top not in self._nodes:  # up to the top of its tail
                    top >>= 1
                if leaves[account]:
                    counters.leaf += 1
                digest = leaf_digest(account, leaves[account])
                run = climb(account, digest, defaults[: self._width - top.bit_length()])
                counters.internal += len(run) - 1
                nodes[top] = account.to_bytes(8, "big") + b"".join(run)
                if top == self._top:
                    continue
                key = top >> 1
            rows.setdefault(self._width - key.bit_length(), set()).add(key)
        get, held, row = nodes.get, self._placeholders.get, set()
        # from the lowest level holding a stale node up, every level holds one
        for level in range(min(rows, default=self.root_level + 1), self.root_level + 1):
            row = {key >> 1 for key in row}
            row.update(rows.get(level, ()))
            default = defaults[level - 1]
            for key in row:
                left, right = 2 * key, 2 * key + 1
                nodes[key] = node_hash(
                    (get(left) or held(left) or default)[-32:],
                    (get(right) or held(right) or default)[-32:],
                )
            counters.internal += len(row)

    def flush(self) -> bool:
        """Rehash every stale node; returns whether there was any."""
        if not self._stale:
            return False
        stale, self._stale = self._stale, set()
        self._fold(stale, self._nodes, self.counters)
        return True

    def digest_at(self, level: int, index: int) -> bytes:
        """Digest of any present node (placeholder or materialized)."""
        key, node, tail = self._present(level, index)
        self.flush()
        if tail is not None and node == key:
            return _level_digest(self._nodes[tail], level)
        return self._read(key, level, self._nodes)

    def root_hash(self) -> bytes:
        self.flush()
        return self._read(self._top, self.root_level, self._nodes)

    def refold(self) -> tuple[bytes, list[tuple[int, int]]]:
        """Once pending rehashes are done, re-fold the tree from its leaf
        balances and placeholders into a fresh map, charging a throwaway
        counter; returns that root and the positions whose kept digest differs."""
        self.flush()
        base, fresh, stale = self._base, {}, []
        keys = [key for key, kept in self._nodes.items() if len(kept) == 32]
        keys += [base + account for account in self.leaves]
        self._fold(keys, fresh, HashCounter())
        for key, kept in self._nodes.items():
            if kept == fresh.get(key):
                continue
            leaf = base + int.from_bytes(kept[:8], "big") if len(kept) > 32 else key
            stale += [
                leaf >> level
                for level in range(len(kept) // 32)
                if _level_digest(kept, level) != _level_digest(fresh[key], level)
            ]
        root = self._read(self._top, self.root_level, fresh)
        return root, sorted(map(self._position, stale))

    def copy(self, counters: HashCounter | None = None) -> PrunedTree:
        """Once pending rehashes are done, an independent copy sharing only the
        immutable digest records.  `counters` is charged what building this
        content from scratch costs: a leaf digest per non-zero balance and a
        node digest per non-default digest above them."""
        self.flush()
        twin = PrunedTree(self.address_bits, self.root_level, self.root_index, counters)
        twin.leaves = dict(self.leaves)
        twin._nodes = dict(self._nodes)
        twin._placeholders = dict(self._placeholders)
        charged, width = twin.counters, self._width
        charged.leaf += sum(1 for balance in self.leaves.values() if balance)
        for key, record in self._nodes.items():
            if len(record) == 32:
                charged.internal += record != DEFAULT_DIGESTS[width - key.bit_length()]
            elif self.leaves[int.from_bytes(record[:8], "big")]:
                charged.internal += len(record) // 32 - 1
        return twin

    # -- materialization ------------------------------------------------------

    def _split(self, top: int, node: int) -> None:
        """Cut the tail at `top` below `node`, which turns inner with the levels
        above it; kept digests are sliced, none is computed."""
        record, cut = self._nodes[top], self._width - node.bit_length()
        leaf = self._base + int.from_bytes(record[:8], "big")
        self._nodes[leaf >> (cut - 1)] = record[: 8 + 32 * cut]
        for level in range(cut, len(record) // 32):
            self._nodes[leaf >> level] = _level_digest(record, level)

    def _expand(self, key: int, node: int | None, tail: int | None) -> int:
        """Make `node` (_deepest() of key, above it) inner; return the node
        below it toward key, unless a non-default placeholder blocks the way."""
        entry = key >> (key.bit_length() - node.bit_length() - 1) if node else self._top
        if entry in self._placeholders:
            raise PathNotMaterialized(f"cannot expand non-default {self._position(entry)}")
        if tail is not None:
            self._split(tail, node)
        return entry

    def ensure_node(self, level: int, index: int) -> None:
        """Materialize the internal path down to (level, index), expanding
        all-zero placeholders along the way; the target itself is left as a
        placeholder (or whatever it already is).  Raises PathNotMaterialized
        when a non-default placeholder blocks the way."""
        span = self.root_level - level
        if not 0 <= span <= self.root_level or index >> span != self.root_index:
            raise NotStored(f"node ({level}, {index}) outside stored subtree")
        key = (1 << (self.address_bits - level)) + index
        node, tail = self._deepest(key)
        if key != self._top and (node is None or node < key >> 1):
            entry = self._expand(key, node, tail)
            for lvl in range(self._width - entry.bit_length(), level, -1):
                self._nodes[key >> (lvl - level)] = DEFAULT_DIGESTS[lvl]

    def ensure_path(self, account: int) -> None:
        """Materialize account's leaf, as a zero balance where the territory is
        default; a non-default placeholder on the way raises PathNotMaterialized."""
        if account in self.leaves:
            return
        if not self.covers(account):
            raise NotStored(f"account {account} outside stored subtree")
        leaf = self._base + account
        entry = self._expand(leaf, *self._deepest(leaf))
        run = _DEFAULT_RUNS[self._width - entry.bit_length()]
        self._nodes[entry] = account.to_bytes(8, "big") + run
        self.leaves[account] = 0

    def set_placeholder(self, level: int, index: int, digest: bytes) -> None:
        """Replace the digest of an existing placeholder (a pruned subtree
        whose content is maintained elsewhere)."""
        key, node, tail = self._present(level, index)
        if node == key:
            raise PathNotMaterialized(f"no placeholder at ({level}, {index})")
        default = DEFAULT_DIGESTS[level]
        if (self._placeholders.get(key) or default) == digest:
            return
        if tail is not None:  # a tail node's default sibling changes
            self._split(tail, node)
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
            raise NegativeBalance(f"negative balance for account {account}")
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
        self.flush()
        key = self._base + account
        while key not in self._nodes:  # up to the top of its tail
            key >>= 1
        get, held, defaults = self._nodes.get, self._placeholders.get, DEFAULT_DIGESTS
        siblings = list(defaults[: self._width - key.bit_length()])
        for level in range(len(siblings), self.root_level):
            siblings.append((get(key ^ 1) or held(key ^ 1) or defaults[level])[-32:])
            key >>= 1
        return BalanceProof(account, self.leaves[account], base_height, tuple(siblings))

    def merge_proof(self, proof: BalanceProof) -> None:
        """Graft a verified proof's path into this tree, reading only its
        first root_level siblings.  Where the proof overlaps content already
        held, digests must agree and a held leaf must hold the proof's
        balance.  No digest changes, so nothing turns stale and merging the
        same proof twice is a no-op."""
        account, siblings = proof.account, proof.siblings
        if not self.covers(account):
            raise NotStored(f"account {account} outside stored range")
        if len(siblings) < self.root_level:
            raise MerkleError(
                f"proof has {len(siblings)} siblings, tree needs {self.root_level}"
            )
        leaf = self._base + account
        node, tail = self._deepest(leaf)
        if tail is not None and node != leaf:
            self._split(tail, node)  # the proof enters beside this tail
        nodes, held, defaults = self._nodes, self._placeholders, DEFAULT_DIGESTS
        # the proof enters below the deepest materialized node on its path;
        # every sibling above the entry that is not materialized must agree
        entry_level = self.root_level
        if node is not None:
            entry_level = self._width - node.bit_length() - 1
        for level in range(self.root_level - 1, max(entry_level, 0) - 1, -1):
            sibling = (leaf >> level) ^ 1
            if sibling in nodes:
                continue
            if (held.get(sibling) or defaults[level]) != siblings[level]:
                raise ConflictingPlaceholder(
                    f"sibling digest mismatch at {self._position(sibling)}"
                )
        if node == leaf:
            if self.leaves[account] != proof.balance:
                raise ConflictingPlaceholder(f"balance mismatch for {account}")
            return

        # fold the proof up to the entry and check it against the digest held
        if proof.balance:
            self.counters.leaf += 1
        digest = leaf_digest(account, proof.balance)
        path = climb(account, digest, siblings[:entry_level])
        self.counters.internal += entry_level
        entry = leaf >> entry_level
        if path[entry_level] != (held.get(entry) or defaults[entry_level]):
            raise ConflictingPlaceholder(f"proof contradicts {self._position(entry)}")

        # a tail up to the lowest non-default sibling, inner nodes above it
        held.pop(entry, None)
        cut = entry_level
        for level in range(entry_level - 1, -1, -1):
            if siblings[level] != defaults[level]:
                held[(leaf >> level) ^ 1], cut = siblings[level], level
        for level in range(cut + 1, entry_level + 1):
            nodes[leaf >> level] = path[level]
        nodes[leaf >> cut] = account.to_bytes(8, "big") + b"".join(path[: cut + 1])
        self.leaves[account] = proof.balance


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

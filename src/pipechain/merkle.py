"""Sparse Merkle state trees over a fixed address space.

Global state is a complete binary tree whose 2**address_bits leaves hold
account balances.  Trees here are *sparse*: a tree holds every non-zero
balance of its scope, and only the root paths of the accounts it holds are
materialized.  Every absent subtree is all-zero and reads its level's
default digest; all-zero subtrees share one well-known digest per level, so
an empty tree costs nothing and untouched addresses still have provable
(zero) balances, proved without materializing them.

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
    """The requested account or position is outside this tree's scope."""


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


@dataclass(frozen=True, slots=True)
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
    """Sparse view of the balance tree, optionally scoped to one subtree.

    The tree's top ``(root_level, root_index)`` covers accounts
    ``[root_index << root_level, (root_index + 1) << root_level)``.
    ``leaves`` holds the held balances, among them every non-zero balance of
    that scope, so every absent subtree is all-zero and reads its level's
    default digest.  Each held leaf ends a *tail*, the materialized nodes up
    to a top below which every sibling is absent.  One map holds by heap key
    the digest of every other (*inner*) materialized node and, at each
    tail's top, the account (8 bytes) and the tail's digests (32 bytes a
    level, leaf first), so memory grows with the accounts held, not times
    the path length.

    ``hashes`` counts every digest the tree computes, a storage replica's
    spine folds included.  apply_transfers() is the one update, all or
    nothing; make_proof() reads the tree and writes nothing to it.
    """

    def __init__(
        self,
        address_bits: int,
        root_level: int | None = None,
        root_index: int = 0,
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
        self.hashes = 0
        self.leaves: dict[int, int] = {}
        self._top = (1 << (address_bits - root_level)) + root_index
        self._base = 1 << address_bits  # key of leaf 0
        self._width = address_bits + 1  # bit length of a leaf key
        self._nodes: dict[int, bytes] = {}  # inner digests and tail records
        self._source: dict[int, bytes] = {}  # a map whose equal records it stores, read only

    # -- inspection ---------------------------------------------------------

    def covers(self, account: int) -> bool:
        return account >> self.root_level == self.root_index

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

    # -- digests ------------------------------------------------------------

    def _fold(self, tops) -> int:
        """Digest the tail of each (account, tail-top key) pair in `tops`
        from the account's balance, then each ancestor of those tops once,
        bottom-up; returns how many digests that made.  An absent child is
        all-zero and reads its level's default digest.  The tree keeps its
        source map's object for a record or digest of equal bytes."""
        rows: dict[int, set[int]] = {}  # level -> nodes above a tail's top
        made, leaves, defaults = 0, self.leaves, DEFAULT_DIGESTS
        nodes, source = self._nodes, self._source
        for account, key in tops:
            level, balance = self._width - key.bit_length(), leaves[account]
            run = climb(account, leaf_digest(account, balance), defaults[:level])
            made += (balance != 0) + level
            record = account.to_bytes(8, "big") + b"".join(run)
            nodes[key] = record if source.get(key) != record else source[key]
            if level < self.root_level:
                rows.setdefault(level + 1, set()).add(key >> 1)
        get, row = nodes.get, set()
        # from the lowest level above a tail's top up, every level holds one
        for level in range(min(rows, default=self.root_level + 1), self.root_level + 1):
            row = {key >> 1 for key in row}
            row.update(rows.get(level, ()))
            default = defaults[level - 1]
            for key in row:
                left, right = get(2 * key) or default, get(2 * key + 1) or default
                digest = node_hash(left[-32:], right[-32:])
                nodes[key] = digest if source.get(key) != digest else source[key]
            made += len(row)
        return made

    def root_hash(self) -> bytes:
        return (self._nodes.get(self._top) or DEFAULT_DIGESTS[self.root_level])[-32:]

    def _build(self) -> int:
        """Digest every held leaf's tail and every inner node from the leaf
        balances alone, in one pass over the sorted accounts; returns how
        many digests that made.  A tail tops one level below where its
        account parts from the nearer of its sorted neighbours, or at the
        tree's top when it is alone."""
        accounts, base = sorted(self.leaves), self._base
        # the level where each account parts from the one before it; the
        # first and the last part from nothing below the top
        parted = [self.root_level + 1]
        parted += [(a ^ b).bit_length() for a, b in zip(accounts, accounts[1:])]
        parted.append(self.root_level + 1)
        tops = [
            (account, (base + account) >> (min(before, after) - 1))
            for account, before, after in zip(accounts, parted, parted[1:])
        ]
        return self._fold(tops)

    def refold(self) -> tuple[bytes, list[tuple[int, int]]]:
        """Build the tree afresh from its leaf balances alone, counting
        nothing; returns that root and the positions whose kept digest
        differs.  A key kept or built on one side only is a stale position
        too: the kept structure is not the balances'."""
        rebuilt = PrunedTree(self.address_bits, self.root_level, self.root_index)
        rebuilt.leaves = self.leaves  # read only
        rebuilt._build()
        base, nodes, fresh, stale = self._base, self._nodes, rebuilt._nodes, []
        for key, kept in nodes.items():
            made = fresh.get(key, b"")
            if kept == made:
                continue
            if len(kept) == 32 or len(kept) != len(made) or kept[:8] != made[:8]:
                stale.append(key)  # an inner node, or not the same tail
                continue
            leaf = base + int.from_bytes(kept[:8], "big")
            stale += [
                leaf >> level
                for level in range(len(kept) // 32)
                if _level_digest(kept, level) != _level_digest(made, level)
            ]
        stale += [key for key in fresh if key not in nodes]
        return rebuilt.root_hash(), sorted(map(self._position, stale))

    def copy(self) -> PrunedTree:
        """An independent copy: copying computes no digest and counts none.
        It writes no map of its source, yet stores the source's object for a
        record or digest it writes with equal bytes."""
        twin = PrunedTree(self.address_bits, self.root_level, self.root_index)
        twin.leaves = dict(self.leaves)
        twin._nodes = dict(self._nodes)
        twin._source = self._nodes
        return twin

    # -- materialization ------------------------------------------------------

    def _split(self, top: int, node: int) -> None:
        """Cut the tail at `top` below `node`, which turns inner with the levels
        above it; kept digests are sliced, none is computed.  A slice whose
        bytes equal the source map's at its key is stored as that object."""
        nodes, get = self._nodes, self._source.get
        record, cut = nodes[top], self._width - node.bit_length()
        leaf = self._base + int.from_bytes(record[:8], "big")
        for level in range(cut - 1, len(record) // 32):
            key = leaf >> level
            part = record[: 8 + 32 * cut] if level < cut else _level_digest(record, level)
            nodes[key] = part if get(key) != part else get(key)

    def _entry(self, account: int) -> tuple[int, int | None]:
        """A held account's tail top, with None.  Where an account the tree
        does not hold would top its default tail: below the deepest
        materialized node on its path, or at the top; with the top of the
        held tail that node lies in (None: none).  NotStored outside the scope."""
        if not self.covers(account):
            raise NotStored(f"account {account} outside stored subtree")
        leaf, nodes = self._base + account, self._nodes
        if account in self.leaves:  # held: walk keys up to its tail's top
            while leaf not in nodes:
                leaf >>= 1
            return leaf, None
        node, tail = self._deepest(leaf)
        entry = leaf >> (leaf.bit_length() - node.bit_length() - 1) if node else self._top
        return entry, tail

    def _materialize(self, account: int) -> None:
        """Hold an account the tree does not hold as a zero leaf with a
        default tail, cutting a held tail it enters; no digest is made.  A
        record whose bytes equal the source map's is stored as that object."""
        entry, tail = self._entry(account)
        if tail is not None:
            self._split(tail, entry >> 1)
        record = account.to_bytes(8, "big") + _DEFAULT_RUNS[self._width - entry.bit_length()]
        self._nodes[entry] = record if self._source.get(entry) != record else self._source[entry]
        self.leaves[account] = 0

    # -- updates --------------------------------------------------------------

    def apply_transfers(self, txs) -> None:
        """Debit each transfer's source and credit its destination, in order,
        wherever this tree covers the account; other accounts are left as
        they are.  All or nothing: a transfer that would overdraw raises
        NegativeBalance and leaves the tree exactly as it was.  Otherwise each
        covered account the tree does not hold is materialized as a zero leaf,
        in first-touch order, and each changed leaf is rehashed with its whole
        tail, then each ancestor once, bottom-up, so n changed balances cost
        at most n * (root_level + 1) digests."""
        leaves, running = self.leaves, {}
        for tx in txs:
            for account, amount in ((tx.src, -tx.amount), (tx.dst, tx.amount)):
                if self.covers(account):
                    balance = running.get(account, leaves.get(account, 0)) + amount
                    if balance < 0:
                        raise NegativeBalance(f"negative balance for account {account}")
                    running[account] = balance
        for account in running:
            if account not in leaves:
                self._materialize(account)
        tops = [(a, self._entry(a)[0]) for a, b in running.items() if leaves[a] != b]
        leaves.update(running)
        self.hashes += self._fold(tops)

    # -- proofs ---------------------------------------------------------------

    def make_proof(self, account: int, base_height: int, spine=()) -> BalanceProof:
        """The account's path to this tree's top, then the `spine` siblings;
        NotStored outside the scope.  An account of the scope the tree does
        not hold has a zero balance; its proof is read where materializing
        it would top its default tail, and equals the proof the tree would
        give had apply_transfers materialized it, but the tree is left as
        it is."""
        key, held = self._entry(account)
        nodes, defaults = self._nodes, DEFAULT_DIGESTS
        level = self._width - key.bit_length()
        siblings = list(defaults[:level])
        if held is not None:  # the entry parts from a held tail: its digest there
            siblings.append(_level_digest(nodes[held], level))
            key, level = key >> 1, level + 1
        for level in range(level, self.root_level):
            siblings.append((nodes.get(key ^ 1) or defaults[level])[-32:])
            key >>= 1
        siblings.extend(spine)
        return BalanceProof(account, self.leaves.get(account, 0), base_height, tuple(siblings))


def build_pruned(
    entries,
    address_bits: int,
    *,
    root_level: int | None = None,
    root_index: int = 0,
    source: dict[int, bytes] | None = None,
) -> PrunedTree:
    """Tree materializing exactly the given (account, balance) entries, built
    in one sorted pass and counting every digest it makes.  From the build on,
    it stores a read-only `source` map's object for every record or digest it
    writes with the bytes `source` holds at the same heap key."""
    tree = PrunedTree(address_bits, root_level, root_index)
    tree._source = {} if source is None else source
    leaves = tree.leaves
    for account, balance in entries:
        if account in leaves:
            raise ValueError(f"duplicate account {account}")
        if not tree.covers(account):
            raise NotStored(f"account {account} outside stored subtree")
        if balance < 0:
            raise NegativeBalance(f"negative balance for account {account}")
        leaves[account] = balance
    tree.hashes = tree._build()
    return tree

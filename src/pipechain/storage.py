"""Storage nodes: balance-proof servers for assigned address ranges.

A node keeps a portion tree plus its spine: a copy of its leaf committee's
genesis subtree, and the digests of the sibling subtrees on the way from the
portion root to the state root.  The copy computes and counts its own
digests but keeps sharing the leaf tree's records of equal bytes.  It
buffers the Transfers and frontier (spine) digests it receives by entry
round, applies an entry round's Transfers when the block carrying it
arrives, as its leaf committee applied them stages - 1 rounds before, folds
the portion root up the spine and cross checks that root against the block.
The tree holds the genesis accounts and the accounts an applied transfer
touched; serving a proof adds none.
"""

from __future__ import annotations

from .ledger import Batch
from .merkle import DEFAULT_DIGESTS, BalanceProof, MerkleError, NotStored, climb, verify_proof

# served proofs re-verified end to end per storage node and audited round
AUDIT_SAMPLE = 4


class StateDivergence(Exception):
    """Locally recomputed state root disagrees with an emitted block."""


class GenesisMismatch(StateDivergence):
    """A party's own hash of the genesis state disagrees with the genesis
    block, the pipeline's fold; the message names the party."""


class StorageNode:
    def __init__(
        self,
        topology,
        portion: int,
        replica: int,
        genesis_tree,
        spine_digests,
        genesis_block,
    ) -> None:
        self.topology = topology
        self.portion = portion
        self.replica = replica
        self.name = f"storage {portion}/{replica}"
        self.tree = genesis_tree.copy()  # its count takes the spine folds too
        # the spine and the path it folds, from the portion root up to the
        # state root: bottom first, all-zero until set
        self.spine = DEFAULT_DIGESTS[topology.portion_bits : topology.address_bits]
        self._path = [*self.spine, DEFAULT_DIGESTS[topology.address_bits]]
        root = self._fold_spine(spine_digests)
        if root != genesis_block.state_root:
            raise GenesisMismatch(
                f"{self.name} root {root.hex()[:16]} != "
                f"genesis root {genesis_block.state_root.hex()[:16]}"
            )
        self.latest_block = genesis_block
        # entry round -> (Transfers in arrival order, {position: digest})
        self._pending: dict[int, tuple[list, dict]] = {}

    def receive(self, msgs, block) -> list | None:
        """Buffer Transfers and frontier items by entry round; with a block,
        apply its entry round.  Returns the Transfers applied (None: no block)."""
        for msg in msgs:
            txs, frontier = self._pending.setdefault(msg.entry, ([], {}))
            if isinstance(msg, Batch):
                txs.extend(msg.txs)
            else:
                frontier.update(msg.items)
        if block is None:
            return None
        txs, frontier = self._pending.pop(self.topology.entry_of(block.height), ([], {}))
        self.apply_confirmed(txs, frontier, block)
        return txs

    def apply_confirmed(self, txs, frontier, new_block) -> None:
        """Apply one block's worth of relevant transactions plus the frontier
        digests published for the same entry round, then check the root.
        Raises StateDivergence naming this node when the root disagrees or
        the tree cannot take the block (a transfer that would overdraw, say)."""
        try:
            self.tree.apply_transfers(txs)
            root = self._fold_spine(frontier.items())
        except MerkleError as exc:
            raise StateDivergence(f"{self.name}: {exc}") from exc
        if root != new_block.state_root:
            raise StateDivergence(
                f"{self.name} root {root.hex()[:16]} != "
                f"block {new_block.height} root {new_block.state_root.hex()[:16]}"
            )
        self.latest_block = new_block

    def _fold_spine(self, digests) -> bytes:
        """Take spine digests by global (level, index) and re-fold the path
        from the lowest level with a new input (the portion root among them)
        up, a node digest a level; returns the state root."""
        spine, path = list(self.spine), self._path
        portion_root = self.tree.root_hash()
        lowest = 0 if portion_root != path[0] else len(spine)
        for (level, index), digest in digests:
            t = level - self.topology.portion_bits
            if not (0 <= t < len(spine) and index == (self.portion >> t) ^ 1):
                raise NotStored(f"({level}, {index}) is not on the spine")
            if spine[t] != digest:
                spine[t], lowest = digest, min(lowest, t)
        self.spine, path[0] = tuple(spine), portion_root
        if lowest < len(spine):
            path[lowest:] = climb(self.portion >> lowest, path[lowest], spine[lowest:])
            self.tree.hashes += len(spine) - lowest
        return path[-1]

    def serve_proof(self, account: int) -> BalanceProof:
        """Balance proof against the newest applied block: the portion path
        followed by the spine; NotStored outside the portion."""
        return self.tree.make_proof(account, self.latest_block.height, self.spine)

    def _stored_failure(self) -> str | None:
        """Re-fold the portion tree without its kept digests, then its root up
        the whole spine, and check them against the kept digests and the
        newest block root; names the first disagreement (None: there is
        none).  Nothing is counted."""
        root, stale = self.tree.refold()
        if stale:
            return f"kept digest at {stale[0]} differs from the rebuild"
        path = climb(self.portion, root, self.spine)
        if path != self._path or path[-1] != self.latest_block.state_root:
            return "the rebuilt portion path differs from the kept path or the block root"
        return None

    def audit_stored(self) -> tuple[int, int]:
        """The re-fold audit() starts with, as (checked, failed): every
        stored account is checked, and all of them fail when any kept digest
        or the root disagrees.  Nothing is counted."""
        checked = len(self.tree.leaves)
        return checked, 0 if self._stored_failure() is None else checked

    def audit(self, round_index: int) -> int:
        """Check the stored accounts with audit_stored(), then AUDIT_SAMPLE
        served proofs, a window over the stored accounts that rotates with
        the round, each verified end to end; returns the checks made.
        Raises StateDivergence naming this node, the block and the first
        failure."""
        block = self.latest_block
        name = f"{self.name}: audit of block {block.height}"
        checked, failed = self.audit_stored()
        # a tree holding no account fails none: only the re-fold can tell
        failure = self._stored_failure() if failed or not checked else None
        if failure is not None:
            raise StateDivergence(f"{name}: {failure}")
        stored = sorted(self.tree.leaves)
        offset = (round_index * AUDIT_SAMPLE) % max(1, len(stored))
        sample = stored[offset : offset + AUDIT_SAMPLE]
        for account in sample:
            if not verify_proof(self.serve_proof(account), block.state_root):
                raise StateDivergence(f"{name}: the proof of account {account} fails")
        return checked + len(sample)

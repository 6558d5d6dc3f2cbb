"""Root-hash pipeline: a tree of committees recomputing the state root.

Leaf committees each own one contiguous address portion and keep its pruned
subtree current with the newest confirmed sequence; inner committees fold
children digests pairwise, one tier per round.  The top of the tree emits
one constant-size block per round, lagging entry by the pipeline depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import Block, block_hash
from .merkle import MerkleError, build_pruned, node_hash


class PipelineFault(Exception):
    """A committee cannot fold its round: an inner committee did not get
    exactly one digest from each child, or a leaf cannot apply its batch."""


@dataclass(frozen=True)
class TierSpec:
    """One tier of inner committees, counted bottom-up from the leaves."""

    count: int
    child_count: int
    owned_levels: int
    base_level: int  # levels above the portion roots already folded below


@dataclass(frozen=True)
class RpcTopology:
    address_bits: int
    portion_levels: int  # tree levels above the portion roots (log2 leaf_count)
    portion_bits: int  # tree levels inside one portion (address_bits - portion_levels)
    tiers: tuple[TierSpec, ...]
    rpc_levels: int
    stages: int

    @property
    def inner_count(self) -> int:
        return sum(t.count for t in self.tiers)

    def entry_of(self, height: int) -> int:
        """Latency law: block `height` carries entry round height - stages + 1."""
        return height - self.stages + 1

    def portion_of(self, account: int) -> int:
        return account >> self.portion_bits

    def spine_positions(self, portion: int) -> tuple[tuple[int, int], ...]:
        """Global (level, index) of every pruned sibling a node storing this
        portion needs in order to fold up to the state root."""
        return tuple(
            (self.portion_bits + t, (portion >> t) ^ 1)
            for t in range(self.portion_levels)
        )


def fold_levels(hash_budget: int) -> int:
    """Levels of pairwise hashing one committee can finish in a round.

    A complete fold of L levels costs 2**L - 1 hashes, so the largest
    affordable L is floor(log2(hash_budget + 1)).
    """
    if hash_budget < 1:
        raise ValueError("hash_budget must be >= 1")
    return (hash_budget + 1).bit_length() - 1


def build_topology(leaf_count: int, hash_budget: int, address_bits: int) -> RpcTopology:
    """The committee tree above leaf_count portion roots: bottom-up tiers of
    full folds of fold_levels(hash_budget), any remainder in one tier on top.
    One leaf committee needs no tier."""
    if leaf_count < 1 or leaf_count & (leaf_count - 1):
        raise ValueError("leaf_count must be a power of two")
    portion_levels = leaf_count.bit_length() - 1
    if portion_levels >= address_bits:
        raise ValueError("every portion needs at least one address bit")
    per_tier = fold_levels(hash_budget)
    tiers = []
    base = 0
    while base < portion_levels:
        owned = min(per_tier, portion_levels - base)
        tiers.append(
            TierSpec(
                count=1 << (portion_levels - base - owned),
                child_count=1 << owned,
                owned_levels=owned,
                base_level=base,
            )
        )
        base += owned
    rpc_levels = 1 + len(tiers)
    return RpcTopology(
        address_bits=address_bits,
        portion_levels=portion_levels,
        portion_bits=address_bits - portion_levels,
        tiers=tuple(tiers),
        rpc_levels=rpc_levels,
        stages=rpc_levels + 1,
    )


def fold_digests(digests):
    """Pairwise-fold a power-of-two digest list; returns (top, levels above
    the input, bottom first)."""
    n = len(digests)
    if n < 1 or n & (n - 1):
        raise ValueError("fold needs a power-of-two digest count")
    levels = []
    current = list(digests)
    while len(current) > 1:
        current = [
            node_hash(current[i], current[i + 1]) for i in range(0, len(current), 2)
        ]
        levels.append(current)
    return current[0], levels


class LeafRpc:
    """Keeps one address portion's subtree synced to the confirmed stream.

    Each round it receives the newest confirmed transactions touching its
    portion (each carrying verified balance proofs), grafts proofs for
    addresses it has never materialized, applies the round's transfers, and
    returns the new portion digest.  A leaf never prunes an address, so a
    proof is only grafted for an address no earlier round touched, whose
    proven balance is therefore still current.  A read-only `source` map is
    passed to build_pruned: the tree stores its object for each equal record.
    """

    def __init__(
        self, topology: RpcTopology, portion: int, genesis_entries, source=None
    ) -> None:
        self.portion = portion
        self.tree = build_pruned(
            genesis_entries,
            topology.address_bits,
            root_level=topology.portion_bits,
            root_index=portion,
            source=source,
        )

    def process_round(self, incoming) -> bytes:
        """Returns the portion digest; raises PipelineFault naming the
        portion when a proof is missing or contradicts the subtree."""
        tree = self.tree
        try:
            for tx in incoming:
                for account, proof in ((tx.src, tx.src_proof), (tx.dst, tx.dst_proof)):
                    if tree.covers(account) and account not in tree.leaves:
                        tree.merge_proof(proof)
            tree.apply_transfers(incoming)
        except MerkleError as exc:
            raise PipelineFault(f"leaf {self.portion}: {exc}") from exc
        return tree.root_hash()


class InnerRpc:
    """Folds its children's digests up a fixed slice of the tree."""

    def __init__(self, topology: RpcTopology, tier_index: int, index: int) -> None:
        self.topology = topology
        self.tier_index = tier_index
        self.index = index
        self.spec = topology.tiers[tier_index]
        self.hashes = 0

    def fold_round(self, child_digests) -> tuple[bytes, dict]:
        """Returns (top digest, {global (level, index): digest} for every
        node this committee computed this round)."""
        spec = self.spec
        if len(child_digests) != spec.child_count:
            raise PipelineFault(
                f"tier {self.tier_index} rpc {self.index} expects "
                f"{spec.child_count} child digests, got {len(child_digests)}"
            )
        top, levels = fold_digests(child_digests)
        self.hashes += len(child_digests) - 1
        computed: dict[tuple[int, int], bytes] = {}
        base = self.topology.portion_bits + spec.base_level
        for step, row in enumerate(levels):
            level = base + step + 1
            start = self.index << (spec.owned_levels - step - 1)
            for offset, digest in enumerate(row):
                computed[(level, start + offset)] = digest
        return top, computed


def next_block(prev_block: Block, state_root: bytes) -> Block:
    return Block(prev_block.height + 1, block_hash(prev_block), state_root)

"""Root-hash pipeline: a tree of committees recomputing the state root.

Leaf committees each own one contiguous address portion and keep its pruned
subtree current with the newest confirmed Transfers, which carry no proofs;
inner committees fold children digests pairwise, one tier per round.  The
top of the tree emits one constant-size block per round, lagging entry by
the pipeline depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import Block, block_hash
from .merkle import MerkleError, build_pruned, node_hash


class PipelineFault(Exception):
    """A committee cannot fold its round: an inner committee did not get
    exactly one digest for each child slot, or a leaf cannot apply its batch."""


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

    def child_positions(self, tier: int, index: int) -> tuple[tuple[int, int], ...]:
        """Global (level, index) of each digest inner committee (tier, index) folds."""
        spec = self.tiers[tier]
        level = self.portion_bits + spec.base_level
        first = index * spec.child_count
        return tuple((level, first + i) for i in range(spec.child_count))


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


def fold_up(row, levels: int) -> dict:
    """Pairwise-fold a row of sibling digests, {(level, index): digest}, up
    `levels` levels; returns every digest the fold makes, keyed by its
    (level, index), bottom first."""
    made = {}
    for _ in range(levels):
        row = {
            (level + 1, index >> 1): node_hash(digest, row[(level, index | 1)])
            for (level, index), digest in sorted(row.items())
            if not index & 1
        }
        made.update(row)
    return made


class LeafRpc:
    """Keeps one address portion's subtree synced to the confirmed stream.

    Each round it applies the newest confirmed Transfers touching its portion
    and returns the new portion digest.  Its tree is built from every genesis
    account of the portion and never prunes, so an account it does not hold
    has a zero balance and joins as a zero leaf: no proof is read.  A
    read-only `source` map is passed to build_pruned: the tree stores its
    object for each equal record.
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
        portion when a transfer would overdraw an account of its tree."""
        try:
            self.tree.apply_transfers(incoming)
        except MerkleError as exc:
            raise PipelineFault(f"leaf {self.portion}: {exc}") from exc
        return self.tree.root_hash()


class InnerRpc:
    """Folds its children's digests up a fixed slice of the tree."""

    def __init__(self, topology: RpcTopology, tier_index: int, index: int) -> None:
        self.spec = spec = topology.tiers[tier_index]
        self.name = f"tier {tier_index} rpc {index}"
        slots = topology.child_positions(tier_index, index)
        self.slots = frozenset(slots)
        self.top = (slots[0][0] + spec.owned_levels, index)
        self.hashes = 0

    def fold_round(self, children) -> tuple[bytes, dict]:
        """Takes the round's child digests as ((level, index), digest) pairs,
        in any order; returns (top digest, {global (level, index): digest}
        for every node this committee computed this round)."""
        row = {}
        for pos, digest in children:
            if pos in row or pos not in self.slots:
                fault = "repeated" if pos in row else "foreign"
                raise PipelineFault(f"{self.name} got a {fault} child digest {pos}")
            row[pos] = digest
        if len(row) < len(self.slots):
            missing = min(self.slots - row.keys())
            raise PipelineFault(f"{self.name} is missing child digest {missing}")
        computed = fold_up(row, self.spec.owned_levels)
        self.hashes += len(computed)
        return computed[self.top], computed


def next_block(prev_block: Block, state_root: bytes) -> Block:
    return Block(prev_block.height + 1, block_hash(prev_block), state_root)

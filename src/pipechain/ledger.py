"""Ledger vocabulary: transactions, blocks, messages, history windows, routing."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

from .merkle import BalanceProof, SpineMemo, verify_proof


GENESIS_PREV_HASH = b"\x00" * 32


def transaction_id(src: int, dst: int, amount: int, entry_round: int, nonce: int) -> bytes:
    """sha256 of the fields as 8-byte big-endian integers.  A field that does
    not pack so (admission discards the transfer) hashes the fields' fixed
    fallback encoding instead: hex for an integer, repr for anything else."""
    fields = (src, dst, amount, entry_round, nonce)
    try:
        payload = b"".join(v.to_bytes(8, "big") for v in fields)
    except (AttributeError, OverflowError, TypeError):
        payload = repr([hex(v) if isinstance(v, int) else v for v in fields]).encode()
    return hashlib.sha256(payload).digest()


class Transfer(NamedTuple):
    """What is kept of a transaction once its confirmation committee has
    checked its proofs: all that leaf committees, storage and clients read."""

    src: int
    dst: int
    amount: int


@dataclass(frozen=True, slots=True)
class Transaction:
    """A transfer carrying balance proofs for both touched accounts.

    Construction never validates; admission rejects malformed instances.
    txid is always transaction_id of the fields (sha256 of src, dst, amount,
    entry_round and nonce) and cannot be set, so a dataclasses.replace copy
    carries its own.
    """

    src: int
    dst: int
    amount: int
    entry_round: int
    nonce: int
    src_proof: BalanceProof | None = None
    dst_proof: BalanceProof | None = None
    txid: bytes = field(init=False)
    transfer: Transfer = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "transfer", Transfer(self.src, self.dst, self.amount))
        object.__setattr__(
            self,
            "txid",
            transaction_id(self.src, self.dst, self.amount, self.entry_round, self.nonce),
        )


@dataclass(frozen=True, slots=True)
class Block:
    """Constant-size block: 8-byte height plus two digests (72 bytes)."""

    height: int
    prev_hash: bytes
    state_root: bytes

    def to_bytes(self) -> bytes:
        return self.height.to_bytes(8, "big") + self.prev_hash + self.state_root


def block_hash(block: Block) -> bytes:
    return hashlib.sha256(block.to_bytes()).digest()


@dataclass(frozen=True, slots=True)
class Batch:
    """One confirmation committee's transfers of one entry round touching one portion."""

    entry: int
    txs: tuple

    def __len__(self) -> int:
        return len(self.txs)


@dataclass(frozen=True, slots=True)
class Frontier:
    """One committee's spine digests of one entry round for one storage node:
    (pos, digest) items."""

    entry: int
    items: tuple

    def __len__(self) -> int:
        return len(self.items)


class BlockHistory:
    """The newest two blocks, each with a SpineMemo at spine_level of the
    proofs verified against it; anything older is unusable as proof base."""

    def __init__(self, spine_level: int = 0) -> None:
        self.spine_level = spine_level
        self._blocks: dict[int, tuple[Block, SpineMemo]] = {}

    def push(self, block: Block) -> None:
        if self._blocks and block.height <= max(self._blocks):
            raise ValueError("history must advance monotonically")
        self._blocks[block.height] = block, SpineMemo(self.spine_level)
        while len(self._blocks) > 2:
            del self._blocks[min(self._blocks)]

    def get(self, height: int) -> Block | None:
        return self._blocks.get(height, (None,))[0]

    def memo(self, height: int) -> SpineMemo | None:
        return self._blocks.get(height, (None, None))[1]


def cc_index(src: int, committee_count: int) -> int:
    """Confirmation committee responsible for a source account."""
    digest = hashlib.sha256(src.to_bytes(8, "big")).digest()
    return int.from_bytes(digest[:8], "big") % committee_count


def syntactic_failure(tx: Transaction, round_index: int, history: BlockHistory):
    """First admission failure for tx, plus how many proof folds were done.

    Checks shape (integer amount and accounts, integer proof bases), then
    that each proof's base block is still inside the truncated history, then
    the proofs themselves: each of its own account, against that base's root.
    """
    folds = 0
    if type(tx.amount) is not int or tx.amount <= 0:
        return "amount", folds
    if type(tx.src) is not int or type(tx.dst) is not int:
        return "bad_proof", folds
    if tx.src == tx.dst:
        return "self_transfer", folds
    for account, proof in ((tx.src, tx.src_proof), (tx.dst, tx.dst_proof)):
        if proof is None:
            return "missing_proof", folds
        if not isinstance(proof, BalanceProof) or type(proof.base_height) is not int:
            return "bad_proof", folds
        if proof.base_height >= round_index:
            return "future_proof", folds
        base = history.get(proof.base_height)
        if base is None:
            return "expired_proof", folds
        folds += 1
        memo = history.memo(proof.base_height)
        if proof.account != account or not verify_proof(proof, base.state_root, memo):
            return "bad_proof", folds
    return None, folds

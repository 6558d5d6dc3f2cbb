"""Confirmation committees: admission, canonical ordering, balance rule.

A committee sees only the transactions routed to it and its own recent
output.  It advances every proof balance through that output window and
accepts a transfer only if the rolled-forward source balance covers it, so
an accepted sequence can never overdraw regardless of what other committees
accept (each source account routes to exactly one committee).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .ledger import Transaction, syntactic_failure


def order_canonically(txs) -> list[Transaction]:
    """Deterministic per-round order: ascending transaction id."""
    return sorted(txs, key=lambda tx: tx.txid)


def roll_forward_balance(account: int, base_balance: int, window) -> int:
    """Advance a proof balance through the committee's own recent output.

    window is an iterable of accepted-transaction sequences, oldest first,
    covering exactly the rounds since the proof's base block.
    """
    balance = base_balance
    for seq in window:
        for tx in seq:
            if tx.src == account:
                balance -= tx.amount
            if tx.dst == account:
                balance += tx.amount
    return balance


@dataclass
class CommitteeRoundStats:
    received: int = 0
    accepted: int = 0
    proof_disagreements: int = 0
    hashes: int = 0


class ConfirmationCommittee:
    def __init__(self, index: int, window_rounds: int, address_bits: int) -> None:
        if window_rounds < 1:
            raise ValueError("window_rounds must be >= 1")
        self.index = index
        self.address_bits = address_bits
        # outputs of the last window_rounds rounds, oldest first
        self.window: deque[tuple[Transaction, ...]] = deque(
            [()] * window_rounds, maxlen=window_rounds
        )

    def confirm_round(self, incoming, round_index: int, history):
        """One confirmation round over the submissions routed here.

        Returns (the accepted transfers in order, [(tx, reason) discards],
        stats).  The committee processes everything it receives; capacity is
        accounted for by the metrics layer, never enforced here.
        """
        stats = CommitteeRoundStats(received=len(incoming))
        proof_cost = self.address_bits + 1
        admitted: list[Transaction] = []
        discards: list[tuple[Transaction, str]] = []
        seen: set[bytes] = set()
        for tx in order_canonically(incoming):
            reason, folds = syntactic_failure(tx, round_index, history)
            stats.hashes += folds * proof_cost
            if reason is None and tx.txid in seen:
                reason = "duplicate"
            if reason is not None:
                discards.append((tx, reason))
                continue
            seen.add(tx.txid)
            admitted.append(tx)

        window = tuple(self.window)
        seeds: dict[int, int] = {}
        running: dict[int, int] = {}

        def seed(account: int, proof) -> None:
            # replay exactly the own-output rounds the proof's base predates:
            # a base of height b already contains entries up to b - q + 1
            start = max(0, proof.base_height - round_index + 2)
            value = roll_forward_balance(account, proof.balance, window[start:])
            if account in seeds:
                if seeds[account] != value:
                    stats.proof_disagreements += 1
                return
            seeds[account] = value
            running[account] = value

        accepted: list[Transaction] = []
        for tx in admitted:
            seed(tx.src, tx.src_proof)
            seed(tx.dst, tx.dst_proof)
            if running[tx.src] >= tx.amount:
                running[tx.src] -= tx.amount
                running[tx.dst] += tx.amount
                accepted.append(tx)
            else:
                discards.append((tx, "insufficient"))

        stats.accepted = len(accepted)
        output = tuple(accepted)
        self.window.append(output)
        return output, discards, stats

"""Confirmation committees: admission, canonical ordering, balance rule.

A committee sees only the transactions routed to it and the net balance
changes of its own recent output.  It advances every proof balance through
that window and accepts a transfer only if the rolled-forward source balance
covers it, so an accepted sequence can never overdraw regardless of what
other committees accept (each source account routes to exactly one
committee).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .ledger import Transaction, syntactic_failure


def order_canonically(txs) -> list[Transaction]:
    """Deterministic per-round order: ascending transaction id."""
    return sorted(txs, key=lambda tx: tx.txid)


@dataclass
class CommitteeRoundStats:
    """One round's counts; its digests go to the committee's own `hashes`."""

    received: int = 0
    accepted: int = 0
    proof_disagreements: int = 0


class ConfirmationCommittee:
    def __init__(self, index: int, window_rounds: int, address_bits: int) -> None:
        if window_rounds < 1:
            raise ValueError("window_rounds must be >= 1")
        self.index = index
        self.address_bits = address_bits
        self.hashes = 0  # every proof digest it has folded
        # each account's net change over each of the last window_rounds
        # rounds' outputs, oldest first
        self.window: deque[dict[int, int]] = deque(
            [{}] * window_rounds, maxlen=window_rounds
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
            self.hashes += folds * proof_cost
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
            value = proof.balance + sum(net.get(account, 0) for net in window[start:])
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
        # running moves only by accepted transfers, from each account's seed
        self.window.append({a: v - seeds[a] for a, v in running.items() if v != seeds[a]})
        return tuple(accepted), discards, stats

"""Independent full-state ledger used to cross-check every emitted block.

Deliberately shares no tree machinery with the pipeline it checks: balances
live in a plain map and digests in a map keyed by heap index (root 1,
children of i at 2i and 2i + 1, leaves from 2**address_bits), rehashed only
along changed root paths. Every position off the touched accounts' root
paths is the all-zero subtree of its level and is not stored. Each touched
account's *leaf tail*, the run of positions from its leaf up to the highest
ancestor with no other touched account below, is one bytes record at the
tail's top: the account (8 bytes) and the tail's digests, 32 bytes a level,
leaf first. Only the branch nodes above the tails, and the chains between
them, keep one 32-byte digest each, so memory grows with the accounts
touched, not with accounts times address_bits or with 2**address_bits.
Tests check it against a literal full-tree fold (tests/reference.py).
"""

from __future__ import annotations

from .merkle import DEFAULT_DIGESTS, leaf_digest, node_hash


class NonNegativityViolation(Exception):
    """Some order-respecting interleaving of an entry round overdraws."""


class LedgerOracle:
    """Checks and applies confirmed entry rounds over the full ledger and
    tracks its root."""

    def __init__(self, address_bits: int, balances=None) -> None:
        self.address_bits = address_bits
        self.balances: dict[int, int] = dict(balances) if balances else {}
        for account, balance in self.balances.items():
            if not 0 <= account < (1 << address_bits):
                raise ValueError(f"account {account} out of range")
            if balance < 0:
                raise ValueError(f"negative initial balance for {account}")
        self.heap: dict[int, bytes] = {}
        self._genesis()

    def _genesis(self) -> None:
        """Hash the initial balances in one pass over the sorted accounts:
        each tail tops one level below where its account parts from the
        nearer sorted neighbour (at the root when it is alone)."""
        bits, accounts = self.address_bits, sorted(self.balances)
        # the level where each account parts from the one before it; the
        # first and the last part from nothing below the root
        parted = [bits + 1]
        parted += [(a ^ b).bit_length() for a, b in zip(accounts, accounts[1:])]
        parted.append(bits + 1)
        self._fold(
            (account, min(before, after) - 1)
            for account, before, after in zip(accounts, parted, parted[1:])
        )

    def _rehash(self, accounts, new) -> None:
        """Give every `new` account a tail, then digest each of `accounts`
        up its tail and every node above once, bottom-up."""
        heap, bits, base = self.heap, self.address_bits, 1 << self.address_bits
        for account in new:
            key, level = base + account, 0
            while key > 1 and key not in heap:  # deepest stored ancestor
                key, level = key >> 1, level + 1
            record = heap.get(key)
            if record is None:  # the first account: its tail reaches the root
                top = bits
            elif len(record) == 32:  # an inner node: the tail tops at its absent child
                top = level - 1
            else:  # inside another tail: cut it below the level where the paths
                # part; the levels above turn inner and the second pass rehashes them
                other = int.from_bytes(record[:8], "big")
                top = (account ^ other).bit_length() - 1
                heap[(base + other) >> top] = record[: 40 + 32 * top]
                for up in range(top + 1, len(record) // 32):
                    heap[(base + other) >> up] = record[8 + 32 * up : 40 + 32 * up]
            # the second pass digests the new tail; until then only its length counts
            record = account.to_bytes(8, "big") + bytes(32 * top + 32)
            heap[(base + account) >> top] = record
        tails = []
        for account in accounts:
            key, top = base + account, 0
            while key not in heap:  # up to the top of its tail
                key, top = key >> 1, top + 1
            tails.append((account, top))
        self._fold(tails)

    def _fold(self, tails) -> None:
        """Digest the tail of each (account, top level) pair in `tails`, each
        digest beside the all-zero subtree of its level, into a record at the
        tail's top; then every node above the tails once, bottom-up."""
        heap, base = self.heap, 1 << self.address_bits
        rows: dict[int, set[int]] = {}  # level -> nodes above a tail's top
        for account, top in tails:
            digest = leaf_digest(account, self.balances[account])
            run = [account.to_bytes(8, "big"), digest]
            for level in range(top):
                if (account >> level) & 1:
                    digest = node_hash(DEFAULT_DIGESTS[level], digest)
                else:
                    digest = node_hash(digest, DEFAULT_DIGESTS[level])
                run.append(digest)
            key = (base + account) >> top
            heap[key] = b"".join(run)
            if key > 1:
                rows.setdefault(top + 1, set()).add(key >> 1)
        row = set()
        for level in range(1, self.address_bits + 1):
            row = {key >> 1 for key in row}
            row.update(rows.get(level, ()))
            default = DEFAULT_DIGESTS[level - 1]  # children of this row sit below
            for key in row:
                left = heap.get(2 * key, default)
                right = heap.get(2 * key + 1, default)
                heap[key] = node_hash(left[-32:], right[-32:])

    def root(self) -> bytes:
        return self.heap.get(1, DEFAULT_DIGESTS[self.address_bits])[-32:]

    def balance(self, account: int) -> int:
        return self.balances.get(account, 0)

    def apply_sequence(self, per_committee, round_index) -> bytes:
        """Check and apply entry round `round_index`, given each committee's
        confirmed sequence; returns the new root.

        `check_interleavings` is the one overdraw rule.  For a single
        sequence its floor is the sequence's lowest prefix, which is the
        sequential rule.  A transfer only moves an amount, so every
        interleaving that never overdraws ends at the balances before the
        round plus each account's net change.  On NonNegativityViolation no
        state changes.
        """
        balances = self.balances
        net = check_interleavings(balances, per_committee, round_index)
        new = [account for account in net if account not in balances]
        for account, change in net.items():
            balances[account] = balances.get(account, 0) + change
        self._rehash(net, new)
        return self.root()

    def total_supply(self) -> int:
        return sum(self.balances.values())


def check_interleavings(balances, per_committee, round_index) -> dict[int, int]:
    """NonNegativityViolation if some order-respecting interleaving of the
    committees' sequences overdraws an account over `balances`; otherwise
    the net change of every account they touch, in first-touch order,
    committee by committee.  An account's floor is the sum, over the
    committees, of each one's lowest running sum of its debits and credits
    on that account, taken after each debit (0 for a committee that never
    dips below zero).  The floor is exact: what each committee has applied
    at any moment is a prefix of its sequence, so no interleaving goes
    lower, and running each committee up to its own lowest point first
    reaches it.  It assumes nothing about which committee may debit which
    account.  (A self-transfer, which admission discards, can only make it
    stricter.)"""
    net: dict[int, int] = {}
    floor: dict[int, int] = {}
    lowests = []  # each committee's lowest running sum by account
    for seq in per_committee:
        running: dict[int, int] = {}
        lowest: dict[int, int] = {}
        for tx in seq:
            debit = running.get(tx.src, 0) - tx.amount
            lowest[tx.src] = min(lowest.get(tx.src, 0), debit)
            running[tx.src] = debit
            running[tx.dst] = running.get(tx.dst, 0) + tx.amount
        for account, low in lowest.items():
            floor[account] = floor.get(account, 0) + low
        for account, change in running.items():
            net[account] = net.get(account, 0) + change
        lowests.append(lowest)
    for account, low in floor.items():
        balance = balances.get(account, 0)
        if balance + low < 0:
            terms = " + ".join(
                f"committee {k} {lowest[account]}"
                for k, lowest in enumerate(lowests) if lowest.get(account, 0) < 0
            )
            raise NonNegativityViolation(
                f"round {round_index}: an interleaving of the committees' sequences "
                f"overdraws account {account} (balance {balance}, floor {low} = {terms})"
            )
    return net

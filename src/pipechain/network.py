"""The network: every message is queued, delivered and counted here.

Messages sent in round i reach their destinations in round i + 1, in send
order, one inbox per committee; the block emitted in round i reaches every
committee beside its inbox.  A published digest goes to the inner committee
that folds it, as one item, and to the storage nodes that keep it, in a
Frontier; who reads each position is decided once, from the topology.  One
rule charges the round's messages:

- a sender pays one message per item it sends, once however many
  destinations share the send (one multicast);
- each destination pays one message per item it receives;
- a Batch or Frontier carries len() items, any other message one;
- a sender of None (a client, or the genesis latches) pays nothing;
- each Batch of the drop round (an entry round) loses the first such
  Batch's first transfer; a Batch left empty is neither queued nor charged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import Batch, Frontier


@dataclass
class Meter:
    """One committee's counts in one round; vars() of it is the report entry."""

    id: str
    msgs_in: int = 0
    msgs_out: int = 0
    hashes: int = 0
    processed: int = 0
    accepted: int = 0
    discarded: int = 0


def _items(msg) -> int:
    return len(msg) if isinstance(msg, (Batch, Frontier)) else 1


class Network:
    def __init__(self, topology, committee_ids, drop_round=None) -> None:
        self._names = {cid: "-".join(map(str, cid)) for cid in committee_ids}
        self.drop_round = drop_round
        self.dropped = None  # the transfer the drop round lost
        self.meters: dict[tuple, Meter] = {}  # the current round's
        self._outbox: dict[tuple, list] = {}
        self._block = None  # in flight to every committee
        # each child position's folding committee, each spine digest's storage nodes
        self.parent: dict[tuple[int, int], tuple] = {}
        self._need: dict[tuple[int, int], list] = {}
        for cid in committee_ids:
            if cid[0] == "inner":
                self.parent.update(dict.fromkeys(topology.child_positions(*cid[1:]), cid))
            elif cid[0] == "storage":
                for pos in topology.spine_positions(cid[1]):
                    self._need.setdefault(pos, []).append(cid)

    def deliver(self):
        """Start a round with fresh meters, charging last round's messages to
        their destinations; returns (inbox by destination, block or None)."""
        inbox, self._outbox = self._outbox, {}
        block, self._block = self._block, None
        self.meters = {cid: Meter(name) for cid, name in self._names.items()}
        for cid, meter in self.meters.items():
            meter.msgs_in += sum(map(_items, inbox.get(cid, ()))) + (block is not None)
        return inbox, block

    def send(self, sender, dests, msg) -> None:
        """Queue msg for each destination: one multicast."""
        drop = self.drop_round
        if drop is not None and isinstance(msg, Batch) and msg.entry == drop:
            self.dropped = self.dropped or msg.txs[0]
            msg = Batch(drop, tuple(tx for tx in msg.txs if tx is not self.dropped))
            if not msg:
                return
        for dest in dests:
            self._outbox.setdefault(dest, []).append(msg)
        if sender is not None:
            self.meters[sender].msgs_out += _items(msg)

    def publish(self, sender, entry: int, computed) -> None:
        """Send a committee's digests of an entry round, {position: digest}:
        a child position to its parent as one item (position, digest), and
        one multicast per spine position to the storage nodes that need it,
        bundled into one Frontier per node."""
        per_node: dict[tuple, list] = {}
        for pos, digest in computed.items():
            if pos in self.parent:
                self.send(sender, [self.parent[pos]], (pos, digest))
            for dest in self._need.get(pos, ()):
                per_node.setdefault(dest, []).append((pos, digest))
        self.meters[sender].msgs_out += sum(pos in self._need for pos in computed)
        for dest, items in per_node.items():
            self._outbox.setdefault(dest, []).append(Frontier(entry, tuple(items)))

    def broadcast(self, sender, block) -> None:
        """Send the block to every committee: one multicast."""
        self._block = block
        self.meters[sender].msgs_out += 1

    def request(self, server) -> None:
        """A client's proof request to a storage node and the node's reply."""
        meter = self.meters[server]
        meter.msgs_in += 1
        meter.msgs_out += 1

    def in_flight(self) -> int:
        """Messages queued for next round, counting the block per committee."""
        queued = sum(len(msgs) for msgs in self._outbox.values())
        return queued + len(self._names) * (self._block is not None)

"""The network's accounting rule, one case per line of its docstring, and
its delivery order."""

import pytest

from pipechain.ledger import GENESIS_PREV_HASH, Batch, Block, Frontier, Transaction
from pipechain.network import Network
from pipechain.pipeline import InnerRpc, build_topology

# four portions of a 256-account space under one inner committee, one
# replica each: portion m's node needs spine positions (6, m ^ 1) and
# (7, (m >> 1) ^ 1)
TOPOLOGY = build_topology(4, 7, 8)
IDS = (
    [("cc", 0), ("cc", 1)]
    + [("leaf", m) for m in range(4)]
    + [("inner", 0, 0)]
    + [("storage", m, 0) for m in range(4)]
)
DIGEST = bytes(range(32))
TXS = tuple(Transaction(a, a + 1, 1, 5, a) for a in range(3))


def _network():
    """A network whose first round has started, so its meters are fresh."""
    network = Network(TOPOLOGY, IDS)
    assert network.deliver() == ({}, None)
    return network


def _counts(network):
    """{committee: (msgs_in, msgs_out)} for every committee that has either."""
    return {
        cid: (meter.msgs_in, meter.msgs_out)
        for cid, meter in network.meters.items()
        if meter.msgs_in or meter.msgs_out
    }


def test_unicast_and_multicast_cost_the_sender_one_message():
    network = _network()
    # a child digest carries its global (level, index): portion roots sit at
    # 6, and each has the one committee folding them as its parent
    assert network.parent == {(6, m): ("inner", 0, 0) for m in range(4)}
    network.send(("leaf", 2), [network.parent[(6, 2)]], ((6, 2), DIGEST))  # unicast
    network.send(("inner", 0, 0), [("leaf", m) for m in range(3)], DIGEST)
    assert _counts(network) == {("leaf", 2): (0, 1), ("inner", 0, 0): (0, 1)}
    inbox, _ = network.deliver()
    assert inbox[("inner", 0, 0)] == [((6, 2), DIGEST)]
    assert _counts(network) == {
        ("inner", 0, 0): (1, 0), **{("leaf", m): (1, 0) for m in range(3)}
    }


@pytest.mark.parametrize("j", [1, 3, 7])
@pytest.mark.parametrize("leaf_count", [1, 2, 8, 256])
def test_each_published_position_reaches_its_readers(leaf_count, j):
    topo = build_topology(leaf_count, j, 10)
    inner = [("inner", t, p) for t, tier in enumerate(topo.tiers) for p in range(tier.count)]
    storage = [("storage", m, 0) for m in range(leaf_count)]
    network = Network(topo, [("leaf", 0), *inner, *storage])
    network.deliver()
    # each child slot goes to the committee folding it, and to no other
    slots = {pos: cid for cid in inner for pos in InnerRpc(topo, *cid[1:]).slots}
    assert network.parent == slots
    # each digest from the portion roots up but the root has a storage reader
    positions = {
        (topo.portion_bits + level, index)
        for level in range(topo.portion_levels + 1)
        for index in range(leaf_count >> level)
    }
    network.publish(("leaf", 0), 1, dict.fromkeys(positions, DIGEST))
    inbox, _ = network.deliver()
    kept = {pos for cid in storage for frontier in inbox.get(cid, ()) for pos, _ in frontier.items}
    assert kept == positions - {(10, 0)}


def test_a_batch_or_frontier_carries_one_item_per_entry():
    network = _network()
    network.send(("cc", 1), [("leaf", 0), ("storage", 0, 0)], Batch(5, TXS))
    frontier = Frontier(5, (((6, 1), DIGEST), ((7, 1), DIGEST)))
    network.send(("inner", 0, 0), [("storage", 0, 0)], frontier)
    assert _counts(network) == {("cc", 1): (0, 3), ("inner", 0, 0): (0, 2)}
    network.deliver()
    assert _counts(network) == {("leaf", 0): (3, 0), ("storage", 0, 0): (5, 0)}


def test_publish_multicasts_each_needed_position_once():
    network = _network()
    root = (8, 0)  # no committee or storage node reads the state root itself
    # routing reads the position alone: the child slot (6, 0) goes to its
    # parent as one item, and to the node keeping it within its Frontier
    network.publish(("inner", 0, 0), 4, {(7, 1): DIGEST, (6, 0): DIGEST, root: DIGEST})
    assert _counts(network) == {("inner", 0, 0): (0, 3)}
    inbox, _ = network.deliver()
    assert inbox == {
        ("inner", 0, 0): [((6, 0), DIGEST)],
        ("storage", 0, 0): [Frontier(4, (((7, 1), DIGEST),))],
        ("storage", 1, 0): [Frontier(4, (((7, 1), DIGEST), ((6, 0), DIGEST)))],
    }
    received = {("inner", 0, 0): (1, 0), ("storage", 0, 0): (1, 0), ("storage", 1, 0): (2, 0)}
    assert _counts(network) == received
    # a position nobody reads costs nothing and sends nothing
    network.publish(("inner", 0, 0), 5, {root: DIGEST})
    assert _counts(network) == received
    assert network.in_flight() == 0


def test_a_drop_round_loses_its_first_batchs_first_transfer_everywhere():
    network = Network(TOPOLOGY, IDS, drop_round=5)
    network.deliver()
    network.send(("cc", 0), [("leaf", 0), ("storage", 0, 0)], Batch(5, TXS[:2]))
    assert network.dropped is TXS[0]
    # later batches of the entry round lose the same transfer; one left
    # empty is neither queued nor charged, and other rounds keep theirs
    network.send(("cc", 1), [("leaf", 1)], Batch(5, (TXS[2], TXS[0])))
    network.send(("cc", 1), [("leaf", 2)], Batch(5, TXS[:1]))
    network.send(("cc", 1), [("leaf", 3)], Batch(6, TXS))
    assert _counts(network) == {("cc", 0): (0, 1), ("cc", 1): (0, 4)}
    inbox, _ = network.deliver()
    assert inbox == {
        ("leaf", 0): [Batch(5, TXS[1:2])],
        ("storage", 0, 0): [Batch(5, TXS[1:2])],
        ("leaf", 1): [Batch(5, TXS[2:])],
        ("leaf", 3): [Batch(6, TXS)],
    }
    assert network.dropped is TXS[0]


def test_broadcast_reaches_every_committee():
    network = _network()
    block = Block(1, GENESIS_PREV_HASH, DIGEST)
    network.send(("cc", 0), [("leaf", 1)], Batch(5, TXS))
    network.broadcast(("inner", 0, 0), block)
    assert network.meters[("inner", 0, 0)].msgs_out == 1
    # the backlog counts messages, the block once per committee
    assert network.in_flight() == 1 + len(IDS)
    inbox, delivered = network.deliver()
    assert delivered is block and inbox == {("leaf", 1): [Batch(5, TXS)]}
    received = {cid: meter.msgs_in for cid, meter in network.meters.items()}
    assert received == {cid: 1 + len(TXS) * (cid == ("leaf", 1)) for cid in IDS}
    assert network.deliver() == ({}, None)


def test_a_proof_request_is_one_message_in_and_one_out():
    network = _network()
    network.request(("storage", 2, 0))
    network.request(("storage", 2, 0))
    assert _counts(network) == {("storage", 2, 0): (2, 2)}
    assert network.in_flight() == 0


def test_a_sender_of_none_pays_nothing():
    network = _network()
    network.send(None, [("cc", 0)], TXS[0])
    network.send(None, [network.parent[(6, 3)]], ((6, 3), DIGEST))  # a genesis latch
    assert _counts(network) == {}
    network.deliver()
    assert _counts(network) == {("cc", 0): (1, 0), ("inner", 0, 0): (1, 0)}


def test_delivery_is_in_send_order_and_in_the_next_round_only():
    network = _network()
    for tx in TXS:
        network.send(None, [("cc", 1)], tx)
    network.send(None, [("cc", 0), ("cc", 1)], TXS[0])
    assert network.in_flight() == 5
    inbox, _ = network.deliver()
    assert inbox == {("cc", 0): [TXS[0]], ("cc", 1): [*TXS, TXS[0]]}
    # sent during a round, after its delivery: the next round gets it
    network.send(None, [("cc", 0)], TXS[2])
    assert network.deliver()[0] == {("cc", 0): [TXS[2]]}
    assert network.deliver() == ({}, None)

"""The network's accounting rule, one case per line of its docstring, and
its delivery order."""

from pipechain.ledger import GENESIS_PREV_HASH, Batch, Block, Frontier, Transaction
from pipechain.network import Network
from pipechain.pipeline import build_topology

# four portions of a 256-account space under one inner committee, one
# replica each: portion m's node needs spine positions (6, m ^ 1) and
# (7, (m >> 1) ^ 1)
TOPOLOGY = build_topology(4, 7, 8)
STORAGE = [(m, 0) for m in range(4)]
IDS = (
    [("cc", 0), ("cc", 1)]
    + [("leaf", m) for m in range(4)]
    + [("inner", 0, 0)]
    + [("storage",) + key for key in STORAGE]
)
DIGEST = bytes(range(32))
TXS = tuple(Transaction(a, a + 1, 1, 5, a) for a in range(3))


def _network():
    """A network whose first round has started, so its meters are fresh."""
    network = Network(TOPOLOGY, IDS, STORAGE)
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
    network.send_up(("leaf", 2), 0, 2, DIGEST)  # unicast to the folding committee
    network.send(("inner", 0, 0), [("leaf", m) for m in range(3)], DIGEST)
    assert _counts(network) == {("leaf", 2): (0, 1), ("inner", 0, 0): (0, 1)}
    inbox, _ = network.deliver()
    assert inbox[("inner", 0, 0)] == [DIGEST]
    assert _counts(network) == {
        ("inner", 0, 0): (1, 0), **{("leaf", m): (1, 0) for m in range(3)}
    }


def test_a_batch_or_frontier_carries_one_item_per_entry():
    network = _network()
    network.send(("cc", 1), [("leaf", 0), ("storage", 0, 0)], Batch(5, TXS))
    frontier = Frontier((((6, 1), 5, DIGEST), ((7, 1), 5, DIGEST)))
    network.send(("inner", 0, 0), [("storage", 0, 0)], frontier)
    assert _counts(network) == {("cc", 1): (0, 3), ("inner", 0, 0): (0, 2)}
    network.deliver()
    assert _counts(network) == {("leaf", 0): (3, 0), ("storage", 0, 0): (5, 0)}


def test_publish_multicasts_each_needed_position_once():
    network = _network()
    root = (8, 0)  # no storage node needs the state root itself
    network.publish(("inner", 0, 0), 4, {(7, 1): DIGEST, (6, 0): DIGEST, root: DIGEST})
    assert _counts(network) == {("inner", 0, 0): (0, 2)}
    inbox, _ = network.deliver()
    assert inbox == {
        ("storage", 0, 0): [Frontier((((7, 1), 4, DIGEST),))],
        ("storage", 1, 0): [Frontier((((7, 1), 4, DIGEST), ((6, 0), 4, DIGEST)))],
    }
    assert _counts(network) == {("storage", 0, 0): (1, 0), ("storage", 1, 0): (2, 0)}
    # a position nobody needs costs nothing and sends nothing
    network.publish(("inner", 0, 0), 5, {root: DIGEST})
    assert _counts(network) == {("storage", 0, 0): (1, 0), ("storage", 1, 0): (2, 0)}
    assert network.in_flight() == 0


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
    network.send_up(None, 0, 3, DIGEST)
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

"""Clients on their own: the view they settle and both of their detectors."""

import pytest

from pipechain.clients import Clients
from pipechain.engine import SimConfig, Simulation
from pipechain.ledger import Transaction, cc_index
from pipechain.network import Network
from pipechain.storage import StateDivergence

# four funded accounts, all of them sources each round; two portions of 512
# accounts, each with two replicas
CONFIG = SimConfig(
    seed=3, address_bits=10, f=4, n_c=2, leaf_count=2, rho=2, rounds=8,
    initial_accounts=4, initial_balance=100,
)
GENESIS = {0: 100, 256: 100, 512: 100, 768: 100}


def _clients():
    """Fresh clients over a fresh simulation's storage nodes, and a network
    whose round has started, so its meters are fresh."""
    sim = Simulation(CONFIG)
    clients = Clients(
        CONFIG, sim.options, sim.topology, sim.storage,
        lambda account: cc_index(account, CONFIG.n_c), GENESIS,
    )
    network = Network(sim.topology, sim.committee_ids)
    network.deliver()
    return sim.storage, clients, network


def _apply(storage, tx, skip=()):
    """Apply one transfer to every storage node but those in skip."""
    for key, node in storage.items():
        if key not in skip:
            node.tree.apply_transfers([tx])


def test_settle_keeps_the_view_and_the_funded_list():
    storage, clients, _ = _clients()
    tx = Transaction(0, 5, 100, 2, 1)
    _apply(storage, tx)
    clients.settle([tx])
    assert clients.view[0] == 0 and clients.view[5] == 100
    assert clients.funded == [5, 256, 512, 768]


def test_settle_names_the_replica_that_disagrees_with_the_view():
    storage, clients, _ = _clients()
    # replica 1 of portion 0 misses the transfer; the other replicas agree
    tx = Transaction(256, 700, 30, 2, 1)
    _apply(storage, tx, skip={(0, 1)})
    with pytest.raises(
        StateDivergence, match="^client view of account 256 is 70, storage 0/1 holds 100$"
    ):
        clients.settle([tx])


def test_a_served_proof_that_disagrees_with_the_view_names_the_account():
    storage, clients, network = _clients()
    txs, truncated = clients.submit(1, network)
    meters = network.meters
    assert sorted(tx.src for tx in txs) == sorted(GENESIS) and not truncated
    # two proofs served per transfer, each charged to replica 0 of its portion
    served = sum(meters[("storage", m, 0)].msgs_in for m in range(CONFIG.leaf_count))
    assert served == 2 * len(txs)
    assert all(meters[("storage", m, 1)].msgs_in == 0 for m in range(CONFIG.leaf_count))
    clients.view[512] += 1
    with pytest.raises(
        StateDivergence, match="^client view of account 512 is 101, storage proves 100$"
    ):
        clients.submit(1, network)

"""Literal references the tests check the library against: the full-tree
fold and the sequential rule; and an inbox shuffle, which shows that no
report depends on the order in which a round's messages arrive."""

import random

from pipechain.merkle import leaf_digest, node_hash
from pipechain.network import Network


def full_tree_root(balances, address_bits: int) -> bytes:
    """Root of the complete tree built literally, leaf by leaf.

    O(2**address_bits); meant as a test oracle for small address spaces.
    """
    level = [leaf_digest(a, balances.get(a, 0)) for a in range(1 << address_bits)]
    for _ in range(address_bits):
        level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def apply_in_order(balances, txs):
    """The balances after running `txs` one at a time over `balances`, or
    None if one of them spends more than its source holds at that moment."""
    after = dict(balances)
    for tx in txs:
        if after.get(tx.src, 0) < tx.amount:
            return None
        after[tx.src] = after.get(tx.src, 0) - tx.amount
        after[tx.dst] = after.get(tx.dst, 0) + tx.amount
    return after



def meter_identity_failures(reports, stages: int, child_counts) -> list:
    """Each way the rows' per-committee meters break the identities that tie
    one stage's counts to another's; child_counts[t] is tier t's fan-in.

    - a confirmation committee accepts or discards each transfer it receives;
    - an inner committee folds each of its children every round;
    - the confirmation committees send each transfer they accept in round
      r - 1 once to each leaf committee whose portion it touches and once to
      that portion's storage replicas, and the leaves apply it in round r;
    - a storage node applies in round r what its leaf committee applied in
      round r - stages + 1 (nothing before that round).
    """
    failures = []
    leaf_rounds = []  # {portion: processed}, one per round before this one
    routed = 0  # the confirmation committees' msgs_out of the round before
    for row in reports:
        r, leaves = row["round"], {}
        source = r - stages + 1
        for meter in row["per_committee"]:
            kind, *key = meter["id"].split("-")
            got = meter["processed"]
            if kind == "cc":
                want, rule = meter["accepted"] + meter["discarded"], "accepted + discarded"
            elif kind == "inner":
                want, rule = child_counts[int(key[0])], "child_count"
            elif kind == "storage":
                want = leaf_rounds[source - 1][int(key[0])] if source >= 1 else 0
                rule = f"leaf-{key[0]} processed of round {source}"
            else:
                leaves[int(key[0])] = got
                continue
            if got != want:
                failures.append(f"round {r}: {meter['id']}: processed {got} != {rule} {want}")
        if 2 * sum(leaves.values()) != routed:
            failures.append(f"round {r}: leaf-*: twice the processed sum "
                            f"{2 * sum(leaves.values())} != cc-* msgs_out {routed} of round {r - 1}")
        routed = sum(m["msgs_out"] for m in row["per_committee"] if m["id"].startswith("cc-"))
        leaf_rounds.append(leaves)
    return failures


def shuffle_inboxes(monkeypatch, seed: int = 0) -> None:
    """From now on, Network.deliver hands every destination its messages in
    an order drawn from random.Random(seed), not in send order."""
    rng, deliver = random.Random(seed), Network.deliver

    def shuffled(network):
        inbox, block = deliver(network)
        for messages in inbox.values():
            rng.shuffle(messages)
        return inbox, block

    monkeypatch.setattr(Network, "deliver", shuffled)

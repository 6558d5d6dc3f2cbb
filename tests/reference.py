"""Literal references the tests check the library against: the full-tree
fold, the sequential rule and the meter identities; an inbox shuffle, which
shows that no report depends on the order in which a round's messages
arrive; and a kept digest overwritten in place, for the audits to find."""

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


def meter_identity_failures(reports, stages: int, child_counts, address_bits: int) -> list:
    """Each way the rows' per-committee meters break the identities that tie
    one stage's counts to another's, or to the topology; child_counts[t] is
    tier t's fan-in and address_bits is A.  Each failure names the round,
    the committee and the field.

    - a confirmation committee accepts or discards each transfer it receives;
    - it folds each proof it checks, A + 1 digests, and checks both proofs
      of each transfer it accepts and at most both of any other, so its
      hashes are a multiple of A + 1 from 2(A+1)·accepted to
      2(A+1)·processed;
    - an inner committee folds each of its children every round, receiving
      one digest from each and, from round 2 on, the block, and makes
      child_count - 1 digests doing so;
    - an inner committee sends each digest it makes but the state root to
      its readers, one message each, and its top digest to its parent too:
      child_count messages, and child_count - 1 (the block among them) from
      the top committee;
    - a leaf committee sends its portion root to its parent and to its
      sibling portion's storage nodes, one message each; a single leaf
      sends only the block;
    - a leaf committee makes digests exactly in the rounds it applies
      transfers: the workload touches an account at most once an entry
      round, by a positive amount, so each one changes a balance it holds;
    - the confirmation committees send each transfer they accept in round
      r - 1 once to each leaf committee whose portion it touches and once to
      that portion's storage replicas, and the leaves apply it in round r;
    - a storage node applies in round r what its leaf committee applied in
      round r - stages + 1 (nothing before that round).

    A storage node's hashes have no such identity: its spine folds depend
    on which frontier digests changed.  The pinned per-layer digest totals
    cover them.
    """
    failures = []
    leaf_rounds = []  # {portion: processed}, one per round before this one
    routed = 0  # the confirmation committees' msgs_out of the round before
    proof = address_bits + 1  # the digests one proof's check folds
    for row in reports:
        r, leaves = row["round"], {}
        source = r - stages + 1
        for meter in row["per_committee"]:
            kind, *key = meter["id"].split("-")
            processed, hashes = meter["processed"], meter["hashes"]
            if kind == "cc":
                accepted = meter["accepted"]
                low, high = 2 * proof * accepted, 2 * proof * processed
                rules = [
                    ("processed", processed == accepted + meter["discarded"],
                     f"accepted + discarded {accepted + meter['discarded']}"),
                    ("hashes", hashes in range(low, high + 1, proof),
                     f"a multiple of {proof} from {low} to {high}"),
                ]
            elif kind == "inner":
                fan_in = child_counts[int(key[0])]
                top = int(key[0]) == len(child_counts) - 1
                rules = [
                    ("processed", processed == fan_in, f"child_count {fan_in}"),
                    ("msgs_in", meter["msgs_in"] == fan_in + (r >= 2),
                     f"child_count + the block {fan_in + (r >= 2)}"),
                    ("msgs_out", meter["msgs_out"] == fan_in - top,
                     f"child_count{' - 1' * top} {fan_in - top}"),
                    ("hashes", hashes == fan_in - 1, f"child_count - 1 {fan_in - 1}"),
                ]
            elif kind == "storage":
                want = leaf_rounds[source - 1][int(key[0])] if source >= 1 else 0
                rules = [("processed", processed == want,
                          f"leaf-{key[0]} processed of round {source} {want}")]
            else:
                leaves[int(key[0])] = processed
                want = 2 if child_counts else 1
                rules = [
                    ("msgs_out", meter["msgs_out"] == want,
                     f"{'parent + spine' if child_counts else 'the block'} {want}"),
                    ("hashes", (hashes == 0) == (processed == 0),
                     f"0 exactly when processed is 0 (processed {processed})"),
                ]
            for field, holds, rule in rules:
                if not holds:
                    failures.append(
                        f"round {r}: {meter['id']}: {field} {meter[field]} is not {rule}"
                    )
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


def corrupt_digest(tree, level, index, digest):
    """Overwrite the digest a tree keeps for one of its materialized nodes,
    an inner node or any level of a leaf tail, leaving its balances as they
    are."""
    key = (1 << (tree.address_bits - level)) + index
    node, top = tree._deepest(key)
    assert node == key, "not materialized"
    if top is None:
        tree._nodes[key] = digest
    else:  # a tail record: an 8-byte account, then 32 bytes a level
        record = tree._nodes[top]
        start = 8 + 32 * level
        tree._nodes[top] = record[:start] + digest + record[start + 32 :]

"""Clients: a balance view settled from the pipeline, and the workload.

Every proof a client submits is checked against the view, and every settled
entry round against each storage replica, so a transfer lost or altered
after confirmation is named even with the oracle off.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from .ledger import Transaction
from .storage import StateDivergence


class Clients:
    def __init__(self, config, options, topology, storage, committee_of, genesis) -> None:
        self.config = config
        self.options = options
        self.topology = topology
        self.storage = storage  # (portion, replica) -> StorageNode
        self.committee_of = committee_of
        self.view = dict(genesis)
        # the view's accounts with a positive balance, ascending
        self.funded = sorted(a for a, balance in self.view.items() if balance > 0)
        self.injected_ids: set[bytes] = set()
        self._nonce = 0
        self._proof_pool: dict[int, list] = {}  # served round -> [(account, proof)]

    def settle(self, txs) -> None:
        """Settle an entry round that storage applied this round: every account
        it touched enters or leaves the funded list and must hold the view's
        balance in each replica (a read that charges no meter)."""
        view, funded = self.view, self.funded
        for tx in txs:
            view[tx.src] = view.get(tx.src, 0) - tx.amount
            view[tx.dst] = view.get(tx.dst, 0) + tx.amount
        for account in dict.fromkeys(a for tx in txs for a in (tx.src, tx.dst)):
            at = bisect_left(funded, account)
            listed = at < len(funded) and funded[at] == account
            if view[account] > 0 and not listed:
                funded.insert(at, account)
            elif view[account] <= 0 and listed:
                del funded[at]
            portion = self.topology.portion_of(account)
            for rep in range(self.config.rho):
                stored = self.storage[(portion, rep)].tree.leaves.get(account, 0)
                if stored != view[account]:
                    raise StateDivergence(
                        f"client view of account {account} is {view[account]},"
                        f" storage {portion}/{rep} holds {stored}"
                    )

    def submit(self, round_index: int, meters):
        """The transfers for entry round round_index + 1, with the expired-proof
        injection from round 3 on; returns (txs, whether the workload fell
        short of f sources)."""
        cfg, entry_round, funded = self.config, round_index + 1, self.funded
        rng = random.Random(f"{cfg.seed}:workload:{entry_round}")
        # sources: f from all funded accounts, or f / n_c per committee
        buckets, per_bucket = [funded], cfg.f
        if self.options.balanced_workload:
            buckets = [[] for _ in range(cfg.n_c)]
            for account in funded:
                buckets[self.committee_of(account)].append(account)
            per_bucket = cfg.f // cfg.n_c
        truncated = any(len(bucket) < per_bucket for bucket in buckets)
        srcs = []
        for bucket in buckets:
            srcs.extend(rng.sample(bucket, min(per_bucket, len(bucket))))
        involved = set(srcs)
        txs = []
        for src in srcs:
            while True:
                dst = rng.randrange(1 << cfg.address_bits)
                if dst not in involved:
                    break
            involved.add(dst)
            src_proof, dst_proof = self._serve(src, meters), self._serve(dst, meters)
            amount = rng.randint(1, src_proof.balance)
            self._nonce += 1
            txs.append(
                Transaction(src, dst, amount, entry_round, self._nonce, src_proof, dst_proof)
            )
        rate = self.options.expired_injection_rate
        if not rate or round_index < 3:
            return txs, truncated
        # proofs served two rounds ago fall outside the truncated history by
        # admission (base = entry_round - 4)
        rng = random.Random(f"{cfg.seed}:inject:{round_index}")
        sample = rng.sample(funded, min(rate, len(funded)))
        self._proof_pool[round_index] = [(a, self._serve(a, meters)) for a in sample]
        for account, stale_proof in self._proof_pool.pop(round_index - 2, ()):
            while True:
                dst = rng.randrange(1 << cfg.address_bits)
                if dst != account:
                    break
            self._nonce += 1
            tx = Transaction(
                account, dst, 1, entry_round, self._nonce, stale_proof,
                self._serve(dst, meters),
            )
            self.injected_ids.add(tx.txid)
            txs.append(tx)
        return txs, truncated

    def _serve(self, account: int, meters):
        """A proof from replica 0 of the account's portion, charged to that
        node's meter and checked against the view."""
        node_key = (self.topology.portion_of(account), 0)
        meter = meters[("storage",) + node_key]
        meter.msgs_in += 1
        meter.msgs_out += 1
        proof = self.storage[node_key].serve_proof(account)
        if proof.balance != self.view.get(account, 0):
            raise StateDivergence(
                f"client view of account {account} is {self.view.get(account, 0)},"
                f" storage proves {proof.balance}"
            )
        return proof

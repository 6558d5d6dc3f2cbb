"""Deterministic round engine wiring committees, pipeline, storage, clients.

Everything advances in lockstep rounds.  Messages produced in round i go to
a next-round outbox keyed by destination and are delivered in round i+1; the
only broadcast is the newly emitted block.  Within a round the stages run in
dependency order (storage apply, client submissions, confirmation, oracle,
routing, leaf folds and inner tiers bottom-up, block emission), which is
observationally equivalent to the committees running concurrently since all
cross-committee data crosses the round boundary through the outbox.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter

from .committee import ConfirmationCommittee
from .ledger import (
    GENESIS_PREV_HASH,
    Block,
    BlockHistory,
    Transaction,
    cc_index,
)
from .merkle import build_pruned, verify_proof
from .oracle import LedgerOracle, NonNegativityViolation
from .pipeline import (
    InnerRpc, LeafRpc, PipelineFault, build_topology, fold_digests, next_block
)
from .storage import StateDivergence, StorageNode

# served proofs re-verified end to end per storage node and audited round
AUDIT_SAMPLE = 4

# exceptions that end a run, with the prefix of the verdict each one gives
FATAL_VERDICTS = {
    StateDivergence: "storage divergence",
    NonNegativityViolation: "non-negativity violation",
    PipelineFault: "pipeline fault",
}


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulated deployment.

    f is the total client submissions per round (one round is the network
    delay bound, so a rate in transactions per second times the round length
    collapses to this single number), e the balance changes one leaf committee
    is provisioned for, j the hash budget of one pipeline committee, rho the
    storage replication factor.
    """

    seed: int = 1
    address_bits: int = 16
    f: int = 50
    n_c: int = 4
    leaf_count: int = 8
    j: int = 7
    e: int = 13
    rho: int = 1
    rounds: int = 200
    initial_accounts: int = 256
    initial_balance: int = 1_000_000
    oracle_enabled: bool = True

    def validated(self) -> "SimConfig":
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "oracle_enabled":
                if not isinstance(value, bool):
                    raise ValueError("oracle_enabled must be a boolean")
            elif not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"config key {field.name} must be an integer")
        if self.address_bits < 1 or self.address_bits > 40:
            raise ValueError("address_bits out of range")
        for name in ("f", "n_c", "leaf_count", "j", "e", "rho", "rounds",
                     "initial_accounts", "initial_balance"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.leaf_count & (self.leaf_count - 1):
            raise ValueError("leaf_count must be a power of two")
        if self.leaf_count.bit_length() - 1 >= self.address_bits:
            raise ValueError("leaf_count too large for the address space")
        if self.initial_accounts > (1 << self.address_bits):
            raise ValueError("initial_accounts exceeds the address space")
        # each round's f transfers touch up to 2f distinct accounts
        if 2 * self.f > (1 << self.address_bits):
            raise ValueError("2 * f exceeds the address space")
        # balances hash as 8-byte fields, and one account may end up with all
        if self.initial_accounts * self.initial_balance > 2**64 - 1:
            raise ValueError("total supply exceeds 2**64 - 1")
        return self

    @classmethod
    def from_mapping(cls, data) -> "SimConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data).validated()

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class _Meter:
    msgs_in: int = 0
    msgs_out: int = 0
    hashes: int = 0
    processed: int = 0
    accepted: int = 0
    discarded: int = 0


# -- messages besides Transaction (client -> cc) and Block (to everyone) ---


@dataclass(frozen=True)
class Batch:
    """One committee's confirmed transfers of one entry round touching one
    portion; the leaf committee and every storage replica get this copy."""

    entry: int
    committee: int
    txs: tuple

    def __len__(self) -> int:
        return len(self.txs)


@dataclass(frozen=True)
class ChildDigest:
    """A child's digest latched into an inner committee at its fold slot."""

    ordinal: int
    digest: bytes


@dataclass(frozen=True)
class Frontier:
    """One committee's spine digests for one storage node: (pos, entry, digest)."""

    items: tuple

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class SimResult:
    reports: list
    summary: dict

    @property
    def ok(self) -> bool:
        return self.summary["fatal"] is None and not self.summary["diverged"]


def report_lines(result: SimResult):
    """JSON-lines serialization: one object per round, then the summary."""
    import json

    for row in result.reports:
        yield json.dumps(row, sort_keys=True, separators=(",", ":"))
    yield json.dumps({"summary": result.summary}, sort_keys=True, separators=(",", ":"))


class Simulation:
    def __init__(
        self,
        config: SimConfig,
        *,
        balanced_workload: bool = False,
        audit_proofs: bool = False,
        expired_injection_rate: int = 0,
        drop_confirmed_round: int | None = None,
        interleave_probe: tuple[int, int] | None = None,
    ) -> None:
        cfg = config.validated()
        for name, value in (
            ("expired_injection_rate", expired_injection_rate),
            ("drop_confirmed_round", drop_confirmed_round or 0),  # None: no drop
            *(("interleave_probe", count) for count in interleave_probe or ()),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if balanced_workload and cfg.f % cfg.n_c:
            raise ValueError("balanced workload needs n_c | f")
        if expired_injection_rate < 0:
            raise ValueError("expired_injection_rate must be >= 0")
        if interleave_probe and min(interleave_probe) < 0:
            raise ValueError("interleave_probe counts must be >= 0")
        if interleave_probe and not cfg.oracle_enabled:
            raise ValueError("interleave_probe needs the oracle")
        self.config = cfg
        self.balanced_workload = balanced_workload
        self.audit_proofs = audit_proofs
        self.expired_injection_rate = expired_injection_rate
        self.drop_confirmed_round = drop_confirmed_round

        topo = build_topology(cfg.leaf_count, cfg.j, cfg.address_bits)
        self.topology = topo
        self.stages = topo.stages
        # entry round 1 is empty; a later loss would settle after the run
        drop, last_drop = drop_confirmed_round, cfg.rounds - topo.stages
        if drop is not None and not 2 <= drop <= last_drop:
            raise ValueError(f"drop_confirmed_round must be in 2..{last_drop}")

        # -- genesis state ------------------------------------------------
        stride = (1 << cfg.address_bits) // cfg.initial_accounts
        genesis_entries = [
            (i * stride, cfg.initial_balance) for i in range(cfg.initial_accounts)
        ]
        self.genesis_root = build_pruned(genesis_entries, cfg.address_bits).root_hash()
        self.genesis_block = Block(0, GENESIS_PREV_HASH, self.genesis_root)
        self.latest_block = self.genesis_block
        self.history = BlockHistory()
        self.history.push(self.genesis_block)

        by_portion: dict[int, list] = {m: [] for m in range(cfg.leaf_count)}
        for account, balance in genesis_entries:
            by_portion[topo.portion_of(account)].append((account, balance))

        self.ccs = [
            ConfirmationCommittee(k, self.stages, cfg.address_bits)
            for k in range(cfg.n_c)
        ]
        self.leaf_rpcs = [
            LeafRpc(topo, m, by_portion[m]) for m in range(cfg.leaf_count)
        ]
        # genesis digests by level above the portion roots, bottom first
        leaf_digests = [leaf.tree.root_hash() for leaf in self.leaf_rpcs]
        levels = [leaf_digests] + fold_digests(leaf_digests)[1]
        if levels[-1][0] != self.genesis_root:
            raise RuntimeError("pipeline genesis fold disagrees with genesis tree")
        self.inner_rpcs = {
            (t, p): InnerRpc(topo, t, p)
            for t, tier in enumerate(topo.tiers)
            for p in range(tier.count)
        }
        self.storage = {
            (m, r): StorageNode(
                topo,
                m,
                r,
                by_portion[m],
                [
                    (pos, levels[t][pos[1]])
                    for t, pos in enumerate(topo.spine_positions(m))
                ],
                self.genesis_block,
            )
            for m in range(cfg.leaf_count)
            for r in range(cfg.rho)
        }
        # per storage node: entry round -> ([Batch], {position: digest})
        self._storage_buffers = {key: {} for key in self.storage}

        # which storage nodes need each published spine digest
        self._spine_need: dict[tuple[int, int], list] = {}
        for m, r in self.storage:
            for pos in topo.spine_positions(m):
                self._spine_need.setdefault(pos, []).append(("storage", m, r))

        self.committee_ids = (
            [("cc", k) for k in range(cfg.n_c)]
            + [("leaf", m) for m in range(cfg.leaf_count)]
            + [("inner",) + key for key in sorted(self.inner_rpcs)]
            + [("storage",) + key for key in sorted(self.storage)]
        )
        self._committee_names = [
            "-".join(str(part) for part in cid) for cid in self.committee_ids
        ]

        # -- pipeline latches: feed genesis digests into round 1 ----------
        self.outbox: dict[tuple, list] = {}
        for t, tier in enumerate(topo.tiers):
            for index, digest in enumerate(levels[tier.base_level]):
                self._send_up(t, index, digest)

        # -- clients and oracle --------------------------------------------
        self.client_view = dict(genesis_entries)
        # the view's accounts with a positive balance, ascending; kept up to
        # date by _update_funded as entries settle
        self.funded = [a for a in sorted(self.client_view) if self.client_view[a] > 0]
        self.oracle = (
            LedgerOracle(cfg.address_bits, dict(genesis_entries))
            if cfg.oracle_enabled
            else None
        )
        if self.oracle is not None and self.oracle.root() != self.genesis_root:
            raise RuntimeError("oracle genesis root disagrees with genesis tree")
        self.supply0 = cfg.initial_accounts * cfg.initial_balance
        self._nonce = 0
        self._committee_of = cache(lambda account: cc_index(account, cfg.n_c))
        self.expected_roots: dict[int, bytes] = {}
        self.accepted_by_entry: dict[int, tuple] = {}
        self.injected_ids: set[bytes] = set()
        self.injected_outcomes: Counter = Counter()
        self._proof_pool: dict[int, list] = {}  # served round -> [(account, proof)]

        self._probe_rounds: set[int] = set()
        self._probe_per_round = 0
        if interleave_probe:
            count, per_round = interleave_probe
            rng = random.Random(f"{cfg.seed}:probe")
            candidates = range(2, cfg.rounds + 1)
            self._probe_rounds = set(
                rng.sample(candidates, min(count, len(candidates)))
            )
            self._probe_per_round = per_round

    # -- helpers -----------------------------------------------------------

    def _send(self, dest, msg) -> None:
        """Queue a message for delivery next round."""
        self.outbox.setdefault(dest, []).append(msg)

    def _send_up(self, tier: int, index: int, digest: bytes) -> None:
        """Latch the index-th digest below a tier into the committee folding it."""
        parent, ordinal = divmod(index, self.topology.tiers[tier].child_count)
        self._send(("inner", tier, parent), ChildDigest(ordinal, digest))

    def _serve_proof(self, account: int, meters):
        node_key = (self.topology.portion_of(account), 0)
        meter = meters[("storage",) + node_key]
        meter.msgs_in += 1
        meter.msgs_out += 1
        return self.storage[node_key].serve_proof(account)

    def _generate_workload(self, entry_round: int, funded, meters):
        cfg = self.config
        rng = random.Random(f"{cfg.seed}:workload:{entry_round}")
        view = self.client_view
        # sources: f from all funded accounts, or f / n_c per committee
        buckets, per_bucket = [funded], cfg.f
        if self.balanced_workload:
            buckets = [[] for _ in range(cfg.n_c)]
            for account in funded:
                buckets[self._committee_of(account)].append(account)
            per_bucket = cfg.f // cfg.n_c
        truncated = any(len(bucket) < per_bucket for bucket in buckets)
        srcs = []
        for bucket in buckets:
            srcs.extend(rng.sample(bucket, min(per_bucket, len(bucket))))
        involved = set(srcs)
        space = 1 << cfg.address_bits
        txs = []
        for src in srcs:
            while True:
                dst = rng.randrange(space)
                if dst not in involved:
                    break
            involved.add(dst)
            src_proof = self._serve_proof(src, meters)
            dst_proof = self._serve_proof(dst, meters)
            for account, proof in ((src, src_proof), (dst, dst_proof)):
                if proof.balance != view.get(account, 0):
                    raise StateDivergence(
                        f"client view of account {account} is {view.get(account, 0)},"
                        f" storage proves {proof.balance}"
                    )
            amount = rng.randint(1, src_proof.balance)
            self._nonce += 1
            txs.append(
                Transaction(src, dst, amount, entry_round, self._nonce, src_proof, dst_proof)
            )
        return txs, truncated

    def _inject_expired(self, current_round: int, entry_round: int, funded, meters):
        """Craft submissions whose source proofs are already outside the
        truncated history at admission time (base = entry_round - 4)."""
        cfg = self.config
        rng = random.Random(f"{cfg.seed}:inject:{current_round}")
        sample = rng.sample(funded, min(self.expired_injection_rate, len(funded)))
        self._proof_pool[current_round] = [(a, self._serve_proof(a, meters)) for a in sample]
        txs = []
        for account, stale_proof in self._proof_pool.pop(current_round - 2, ()):
            while True:
                dst = rng.randrange(1 << cfg.address_bits)
                if dst != account:
                    break
            dst_proof = self._serve_proof(dst, meters)
            self._nonce += 1
            tx = Transaction(
                account, dst, 1, entry_round, self._nonce, stale_proof, dst_proof
            )
            self.injected_ids.add(tx.txid)
            txs.append(tx)
        return txs

    @staticmethod
    def _interleave(per_committee, rng) -> list:
        queues = [deque(seq) for seq in per_committee if seq]
        merged = []
        while queues:
            pick = rng.randrange(len(queues))
            merged.append(queues[pick].popleft())
            if not queues[pick]:
                del queues[pick]
        return merged

    def _probe_mismatches(self, round_index: int, per_committee, base, expected) -> int:
        """Replays random interleavings from the pre-round oracle `base`;
        returns how many miss the expected root or overdraw."""
        mismatches = 0
        for i in range(self._probe_per_round):
            rng = random.Random(f"{self.config.seed}:probe:{round_index}:{i}")
            try:
                got = base.fork().apply_sequence(self._interleave(per_committee, rng))
            except NonNegativityViolation:
                got = None
            mismatches += got != expected
        return mismatches

    # -- the run -------------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.config
        # running totals, updated in place by the stages
        self.summary = summary = {
            "config": cfg.to_json_dict(),
            "stages": self.stages,
            "rpc_levels": self.topology.rpc_levels,
            "committees": {
                "cc": cfg.n_c,
                "leaf": cfg.leaf_count,
                "inner": self.topology.inner_count,
                "storage": cfg.leaf_count * cfg.rho,
            },
            "rounds_run": 0,
            "accepted_total": 0,
            "received_total": 0,
            "discard_reasons": Counter(),
            "proof_disagreements": 0,
            "conservative_rejections": 0,
            "workload_truncated_rounds": 0,
            "leaf_failed_rounds": 0,
            "latency": {"checked": 0, "violations": 0},
            "supply": dict.fromkeys(("initial", "min", "max"), self.supply0),
            "audit": {"checked": 0, "failed": 0},
            "oracle": {"enabled": cfg.oracle_enabled, "matches": 0, "mismatches": 0},
            "interleave": {"rounds": 0, "checks": 0, "mismatches": 0},
            "peaks": {"cc_tx": 0, "rpc_hashes": 0, "committee_msgs": 0, "backlog": 0},
            "fatal": None,
        }
        reports = []
        for round_index in range(1, cfg.rounds + 1):
            try:
                row = self._round(round_index)
            except tuple(FATAL_VERDICTS) as exc:
                summary["fatal"] = f"{FATAL_VERDICTS[type(exc)]}: {exc}"
                break
            summary["rounds_run"] += 1
            reports.append(row)
            if row["oracle"] == "mismatch":
                summary["fatal"] = f"oracle divergence at height {row['block_height']}"
                break

        summary.update(
            blocks_emitted=summary["rounds_run"],
            block_bytes=len(self.latest_block.to_bytes()),
            injected={
                "count": len(self.injected_ids),
                "outcomes": self.injected_outcomes,
            },
            diverged=summary["fatal"] is not None,
        )
        return SimResult(reports, summary)

    def _round(self, round_index: int) -> dict:
        """Deliver last round's outbox, run the stages in dependency order and
        return the report row.  A stage takes the round index, its input (the
        inbox or an earlier stage's output) and the meters it charges."""
        inbox, self.outbox = self.outbox, {}
        meters = {cid: _Meter() for cid in self.committee_ids}
        # per-item accounting: batched messages count one message per item
        for cid, msgs in inbox.items():
            meters[cid].msgs_in += sum(
                len(msg) if isinstance(msg, (Batch, Frontier)) else 1 for msg in msgs
            )

        audit = self._storage_stage(round_index, inbox, meters)
        truncated = self._client_stage(round_index, meters)
        confirmed, discards = self._confirm_stage(round_index, inbox, meters)
        supply = self._oracle_stage(round_index, confirmed, discards)
        self._route_stage(round_index, self.accepted_by_entry[round_index], meters)
        state_root = self._fold_stage(round_index, inbox, meters)
        block, verdict = self._emit_stage(round_index, state_root, meters)

        peaks = self.summary["peaks"]
        per_committee = []
        for cid, name in zip(self.committee_ids, self._committee_names):
            meter = meters[cid]
            per_committee.append({"id": name, **vars(meter)})
            peaks["committee_msgs"] = max(
                peaks["committee_msgs"], meter.msgs_in + meter.msgs_out
            )
            if cid[0] in ("leaf", "inner"):
                peaks["rpc_hashes"] = max(peaks["rpc_hashes"], meter.hashes)
        backlog = sum(len(msgs) for msgs in self.outbox.values())
        peaks["backlog"] = max(peaks["backlog"], backlog)

        return {
            "round": round_index,
            "block_height": block.height,
            "state_root": block.state_root.hex(),
            "oracle": verdict,
            "supply": supply,
            "backlog": backlog,
            "audit": audit,
            "truncated": truncated,
            "per_committee": per_committee,
        }

    def _storage_stage(self, round_index: int, inbox, meters) -> dict:
        """Storage nodes buffer transfers and frontier digests by entry round,
        apply one when its block arrives and audit; returns the audit counts."""
        audit_checked = audit_failed = 0
        for key in sorted(self.storage):
            node = self.storage[key]
            cid = ("storage",) + key
            buffers = self._storage_buffers[key]
            block = None
            for msg in inbox.get(cid, ()):
                if isinstance(msg, Batch):
                    buffers.setdefault(msg.entry, ([], {}))[0].append(msg)
                elif isinstance(msg, Frontier):
                    for pos, entry, digest in msg.items:
                        buffers.setdefault(entry, ([], {}))[1][pos] = digest
                else:
                    block = msg
            if block is None:
                continue
            batches, frontier = buffers.pop(block.height - self.stages + 1, ([], {}))
            txs = [
                tx
                for batch in sorted(batches, key=attrgetter("committee"))
                for tx in batch.txs
            ]
            before = node.counters.total()
            node.apply_confirmed(txs, frontier, block)
            meter = meters[cid]
            meter.processed += len(txs)
            meter.hashes += node.counters.total() - before
            if self.audit_proofs:
                checked, failed = node.audit_stored()
                stored = sorted(node.tree.leaves)
                offset = (round_index * AUDIT_SAMPLE) % max(1, len(stored))
                for account in stored[offset : offset + AUDIT_SAMPLE]:
                    proof = node.serve_proof(account)
                    checked += 1
                    if not verify_proof(proof, node.latest_block.state_root):
                        failed += 1
                audit_checked += checked
                audit_failed += failed
        totals = self.summary["audit"]
        totals["checked"] += audit_checked
        totals["failed"] += audit_failed
        return {"checked": audit_checked, "failed": audit_failed}

    def _client_stage(self, round_index: int, meters) -> bool:
        """Clients settle the entry round leaving the pipeline into their view,
        check it against storage and submit for entry round i+1; returns
        whether the workload fell short."""
        view = self.client_view
        settled = self.accepted_by_entry.pop(round_index - self.stages, ())
        for tx in settled:
            view[tx.src] = view.get(tx.src, 0) - tx.amount
            view[tx.dst] = view.get(tx.dst, 0) + tx.amount
        self._update_funded(a for tx in settled for a in (tx.src, tx.dst))
        self._check_settled(settled)
        if round_index == self.config.rounds:
            return False
        entry_round = round_index + 1
        funded = self.funded
        submissions, truncated = self._generate_workload(entry_round, funded, meters)
        if self.expired_injection_rate and round_index >= 3:
            submissions.extend(
                self._inject_expired(round_index, entry_round, funded, meters)
            )
        for tx in submissions:
            self._send(("cc", self._committee_of(tx.src)), tx)
        self.summary["workload_truncated_rounds"] += truncated
        return truncated

    def _update_funded(self, accounts) -> None:
        """Insert or drop each account whose balance in the view crossed zero."""
        funded = self.funded
        view = self.client_view
        for account in accounts:
            at = bisect_left(funded, account)
            listed = at < len(funded) and funded[at] == account
            if view[account] > 0:
                if not listed:
                    funded.insert(at, account)
            elif listed:
                del funded[at]

    def _check_settled(self, txs) -> None:
        """Storage applied the settled entry this round: every account it
        touched must hold the clients' balance in each replica (a read that
        charges no meter)."""
        view = self.client_view
        for account in (a for tx in txs for a in (tx.src, tx.dst)):
            portion = self.topology.portion_of(account)
            for rep in range(self.config.rho):
                stored = self.storage[(portion, rep)].tree.leaves.get(account, 0)
                if stored != view.get(account, 0):
                    raise StateDivergence(
                        f"client view of account {account} is {view.get(account, 0)},"
                        f" storage {portion}/{rep} holds {stored}"
                    )

    def _confirm_stage(self, round_index: int, inbox, meters):
        """Returns each committee's accepted sequence and the round's discards."""
        # the block emitted last round enters every validator's history
        if round_index > 1:
            self.history.push(self.latest_block)
        totals = self.summary
        confirmed = []
        round_discards = []
        for committee in self.ccs:
            cid = ("cc", committee.index)
            incoming = [
                msg for msg in inbox.get(cid, ()) if isinstance(msg, Transaction)
            ]
            accepted, discards, stats = committee.confirm_round(
                incoming, round_index, self.history
            )
            meter = meters[cid]
            meter.processed += stats.received
            meter.accepted += stats.accepted
            meter.discarded += len(discards)
            meter.hashes += stats.hashes
            totals["received_total"] += stats.received
            totals["accepted_total"] += stats.accepted
            totals["proof_disagreements"] += stats.proof_disagreements
            totals["discard_reasons"].update(reason for _, reason in discards)
            totals["peaks"]["cc_tx"] = max(totals["peaks"]["cc_tx"], stats.received)
            confirmed.append(accepted)
            round_discards.extend(discards)
            self.injected_outcomes.update(
                reason for tx, reason in discards if tx.txid in self.injected_ids
            )

        merged = tuple(tx for txs in confirmed for tx in txs)
        self.accepted_by_entry[round_index] = merged
        return confirmed, round_discards

    def _oracle_stage(self, round_index: int, confirmed, discards) -> int | None:
        """Replays the entry round and records the root its block must carry;
        returns the total supply (None with the oracle off)."""
        oracle = self.oracle
        if oracle is None:
            return None
        totals = self.summary
        for tx, reason in discards:
            if reason == "insufficient" and oracle.balance(tx.src) >= tx.amount:
                totals["conservative_rejections"] += 1
        probing = round_index in self._probe_rounds
        base = oracle.fork() if probing else None
        expected = oracle.apply_sequence(self.accepted_by_entry[round_index])
        self.expected_roots[round_index] = expected
        if probing:
            probe = totals["interleave"]
            probe["rounds"] += 1
            probe["checks"] += self._probe_per_round
            probe["mismatches"] += self._probe_mismatches(
                round_index, confirmed, base, expected
            )
        supply = oracle.total_supply()
        totals["supply"]["min"] = min(totals["supply"]["min"], supply)
        totals["supply"]["max"] = max(totals["supply"]["max"], supply)
        return supply

    def _route_stage(self, round_index: int, merged, meters) -> None:
        """Sends one batch per committee and touched portion to the portion's
        leaf committee and storage replicas."""
        if self.drop_confirmed_round == round_index and merged:
            # fault hook: downstream copy silently loses one confirmed tx
            merged = merged[1:]
        leaf_batches: dict[int, dict[int, list]] = {}
        for tx in merged:
            for account in {tx.src, tx.dst}:
                portion = self.topology.portion_of(account)
                leaf_batches.setdefault(portion, {}).setdefault(
                    self._committee_of(tx.src), []
                ).append(tx)
        for portion in sorted(leaf_batches):
            by_committee = leaf_batches[portion]
            for committee in sorted(by_committee):
                txs = tuple(dict.fromkeys(by_committee[committee]))
                batch = Batch(round_index, committee, txs)
                self._send(("leaf", portion), batch)
                for rep in range(self.config.rho):
                    self._send(("storage", portion, rep), batch)
                # the leaf copy, plus one multicast per item to the replicas
                meters[("cc", committee)].msgs_out += 2 * len(batch)

    def _fold_stage(self, round_index: int, inbox, meters) -> bytes:
        """Leaves fold the previous entry round, inner tiers fold bottom-up and
        spine digests go to storage; returns the last digest folded, which is
        the state root (the single tier-top, or the only leaf's digest)."""
        topo = self.topology
        frontier_out = []  # (position, entry, digest, owner id)
        top = b""
        for leaf in self.leaf_rpcs:
            cid = ("leaf", leaf.portion)
            batches = sorted(
                (msg for msg in inbox.get(cid, ()) if isinstance(msg, Batch)),
                key=attrgetter("committee"),
            )
            incoming = [tx for batch in batches for tx in batch.txs]
            before = leaf.counters.total()
            try:
                top = leaf.process_round(incoming)
            except PipelineFault:
                self.summary["leaf_failed_rounds"] += 1
                raise
            meter = meters[cid]
            meter.processed += len(incoming)
            meter.hashes += leaf.counters.total() - before
            if topo.tiers:
                self._send_up(0, leaf.portion, top)
                meter.msgs_out += 1
                frontier_out.append(
                    ((topo.portion_bits, leaf.portion), round_index - 1, top, cid)
                )

        for t, tier in enumerate(topo.tiers):
            for p in range(tier.count):
                cid = ("inner", t, p)
                rpc = self.inner_rpcs[(t, p)]
                children = sorted(
                    (msg for msg in inbox.get(cid, ()) if isinstance(msg, ChildDigest)),
                    key=attrgetter("ordinal"),
                )
                before = rpc.counters.total()
                top, computed = rpc.fold_round([child.digest for child in children])
                meter = meters[cid]
                meter.processed += len(children)
                meter.hashes += rpc.counters.total() - before
                entry = round_index - 2 - t
                frontier_out.extend(
                    (pos, entry, digest, cid) for pos, digest in computed.items()
                )
                if t + 1 < len(topo.tiers):
                    self._send_up(t + 1, p, top)
                    meter.msgs_out += 1

        frontier_msgs: dict[tuple, list] = {}
        for pos, entry, digest, owner in frontier_out:
            dests = self._spine_need.get(pos, ())
            if dests:
                # identical digest fans out to its need set: one multicast
                meters[owner].msgs_out += 1
            for dest in dests:
                frontier_msgs.setdefault((owner, dest), []).append((pos, entry, digest))
        for (owner, dest), items in sorted(frontier_msgs.items()):
            self._send(dest, Frontier(tuple(items)))
        return top

    def _emit_stage(self, round_index: int, state_root: bytes, meters):
        """Broadcasts the next block; returns it with the oracle's verdict.
        Latency law: block h carries entry round h - q + 1, whose transfers
        are checked here and violations when the oracle rejects the block."""
        block = next_block(self.latest_block, state_root)
        self.latest_block = block
        tiers = self.topology.tiers
        emitter = ("inner", len(tiers) - 1, 0) if tiers else ("leaf", 0)
        meters[emitter].msgs_out += 1  # one multicast: the only broadcast
        for cid in self.committee_ids:
            self._send(cid, block)
        entry = block.height - self.stages + 1
        carried = len(self.accepted_by_entry.get(entry, ()))
        self.summary["latency"]["checked"] += carried
        if self.oracle is None:
            return block, "n/a"
        oracle = self.summary["oracle"]
        if block.state_root == self.expected_roots.pop(entry, self.genesis_root):
            oracle["matches"] += 1
            return block, "match"
        oracle["mismatches"] += 1
        self.summary["latency"]["violations"] += carried
        return block, "mismatch"

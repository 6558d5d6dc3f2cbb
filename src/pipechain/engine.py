"""Deterministic round engine wiring committees, pipeline, storage, clients.

Everything advances in lockstep rounds.  Each round runs the stages in
dependency order (storage, clients, confirmation, oracle, routing, leaf and
inner folds, block emission), handing each unit, which keeps its own state,
what the network delivered to it.  A folding committee publishes every
digest it makes by its (level, index), and the network sends each position
to its readers.  All cross-committee data crosses the round boundary and no
unit reads the order it arrives in, so this equals the committees running
concurrently: the `shuffled` cases of `test_report_bytes_pinned` and
`test_acceptance_report_bytes_pinned` shuffle every inbox and get the same
bytes.  The oracle and the router take each committee's accepted sequence
as it is; the router records the entry round for settling as Transfers,
storage buffers keep Transfers too and committee windows each account's net
change: proofs end at the leaf graft.  Stages return what they count, and
the round adds it to the summary only after every stage has returned, so a
round that ends the run adds nothing.  The network charges messages; the
round sets each committee's `hashes` to the growth of the one digest count
it keeps (its tree's for a leaf or a storage node, else its own).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from functools import cache

from .clients import Clients
from .committee import ConfirmationCommittee
from .ledger import GENESIS_PREV_HASH, Batch, Block, BlockHistory, cc_index
from .network import Network
from .oracle import LedgerOracle, NonNegativityViolation
from .pipeline import (
    InnerRpc, LeafRpc, PipelineFault, build_topology, fold_up, next_block
)
from .storage import GenesisMismatch, StateDivergence, StorageNode

# exceptions that end a run, with the prefix of the verdict each one gives
FATAL_VERDICTS = {
    StateDivergence: "storage divergence",
    NonNegativityViolation: "non-negativity violation",
    PipelineFault: "pipeline fault",
}


def _integer(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")


def _boolean(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a boolean")


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
            check = _boolean if field.type == "bool" else _integer
            check(f"config key {field.name}", getattr(self, field.name))
        if self.address_bits < 1 or self.address_bits > 40:
            raise ValueError("address_bits out of range")
        for name in ("f", "n_c", "leaf_count", "j", "e", "rho", "rounds",
                     "initial_accounts", "initial_balance"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        build_topology(self.leaf_count, self.j, self.address_bits)  # its leaf_count rules
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


@dataclass(frozen=True)
class RunOptions:
    """Simulation's options: workload shape, proof audit and fault hooks."""

    balanced_workload: bool = False
    audit_proofs: bool = False
    expired_injection_rate: int = 0
    drop_confirmed_round: int | None = None  # None: no drop

    def validated(self, cfg: SimConfig, stages: int) -> "RunOptions":
        _boolean("balanced_workload", self.balanced_workload)
        _boolean("audit_proofs", self.audit_proofs)
        _integer("expired_injection_rate", self.expired_injection_rate)
        drop = self.drop_confirmed_round
        if drop is not None:
            _integer("drop_confirmed_round", drop)
        if self.balanced_workload and cfg.f % cfg.n_c:
            raise ValueError("balanced workload needs n_c | f")
        if self.expired_injection_rate < 0:
            raise ValueError("expired_injection_rate must be >= 0")
        # entry round 1 is empty; a later loss would settle after the run
        if drop is not None and not 2 <= drop <= cfg.rounds - stages:
            raise ValueError(f"drop_confirmed_round must be in 2..{cfg.rounds - stages}")
        return self


@dataclass
class SimResult:
    reports: list
    summary: dict

    @property
    def ok(self) -> bool:
        return self.summary["fatal"] is None


def report_lines(result: SimResult):
    """JSON-lines serialization: one object per round, then the summary."""
    import json

    for row in result.reports:
        yield json.dumps(row, sort_keys=True, separators=(",", ":"))
    yield json.dumps({"summary": result.summary}, sort_keys=True, separators=(",", ":"))


class Simulation:
    def __init__(self, config: SimConfig, **options) -> None:
        """options are RunOptions' fields, validated against config."""
        cfg = config.validated()
        self.config = cfg
        topo = build_topology(cfg.leaf_count, cfg.j, cfg.address_bits)
        self.topology = topo
        self.options = RunOptions(**options).validated(cfg, topo.stages)

        # -- genesis state ------------------------------------------------
        stride = (1 << cfg.address_bits) // cfg.initial_accounts
        genesis_entries = [
            (i * stride, cfg.initial_balance) for i in range(cfg.initial_accounts)
        ]
        by_portion: dict[int, list] = {m: [] for m in range(cfg.leaf_count)}
        for account, balance in genesis_entries:
            by_portion[topo.portion_of(account)].append((account, balance))

        self.ccs = [
            ConfirmationCommittee(k, topo.stages, cfg.address_bits)
            for k in range(cfg.n_c)
        ]
        # the oracle hashes genesis by itself; leaf trees then store its
        # object for each record of equal bytes they compute
        self.oracle = None
        if cfg.oracle_enabled:
            self.oracle = LedgerOracle(cfg.address_bits, dict(genesis_entries))
        heap = None if self.oracle is None else self.oracle.heap
        # the only pipeline party that hashes genesis; storage copies its trees
        self.leaf_rpcs = [
            LeafRpc(topo, m, by_portion[m], heap) for m in range(cfg.leaf_count)
        ]
        # genesis digests by global (level, index), from the portion roots up
        genesis = {
            (topo.portion_bits, m): leaf.tree.root_hash()
            for m, leaf in enumerate(self.leaf_rpcs)
        }
        genesis.update(fold_up(genesis, topo.portion_levels))
        genesis_root = genesis[(cfg.address_bits, 0)]
        if self.oracle is not None and self.oracle.root() != genesis_root:
            raise GenesisMismatch(
                f"oracle root {self.oracle.root().hex()[:16]} != "
                f"genesis root {genesis_root.hex()[:16]}"
            )
        self.genesis_block = Block(0, GENESIS_PREV_HASH, genesis_root)
        self.latest_block = self.genesis_block
        self.history = BlockHistory(topo.portion_bits)
        self.history.push(self.genesis_block)
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
                self.leaf_rpcs[m].tree,
                [(pos, genesis[pos]) for pos in topo.spine_positions(m)],
                self.genesis_block,
            )
            for m in range(cfg.leaf_count)
            for r in range(cfg.rho)
        }

        # what keeps each committee's running digest count, in report order
        self.counters = {
            **{("cc", k): cc for k, cc in enumerate(self.ccs)},
            **{("leaf", m): leaf.tree for m, leaf in enumerate(self.leaf_rpcs)},
            **{("inner",) + key: self.inner_rpcs[key] for key in sorted(self.inner_rpcs)},
            **{("storage",) + key: self.storage[key].tree for key in sorted(self.storage)},
        }

        # -- pipeline latches: feed genesis digests into round 1 ----------
        drop = self.options.drop_confirmed_round
        self.network = Network(topo, self.counters, drop)
        for pos, parent in self.network.parent.items():
            self.network.send(None, [parent], (pos, genesis[pos]))

        # -- clients ------------------------------------------------------
        self._committee_of = cache(lambda account: cc_index(account, cfg.n_c))
        self.clients = Clients(
            cfg, self.options, topo, self.storage, self._committee_of, genesis_entries
        )
        self.expected_roots: dict[int, bytes] = {}
        self.accepted_by_entry: dict[int, tuple] = {}

    # -- the run -------------------------------------------------------------

    def run(self) -> SimResult:
        # the units keep their state, so a second run would start mid-ledger
        if hasattr(self, "summary"):
            raise RuntimeError("a Simulation runs once; build a new one to run again")
        cfg = self.config
        # running totals: `_round` adds a round once all its stages returned
        self.summary = summary = {
            "config": cfg.to_json_dict(),
            "stages": self.topology.stages,
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
            "injected": {"count": 0, "outcomes": Counter()},
            "workload_truncated_rounds": 0,
            "latency": {"checked": 0, "violations": 0},
            "supply": dict.fromkeys(
                ("initial", "min", "max"), cfg.initial_accounts * cfg.initial_balance
            ),
            "audit": {"checked": 0, "failed": 0},
            "oracle": {"enabled": cfg.oracle_enabled, "matches": 0},
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

        if self.network.drop_round is not None and self.network.dropped is None:
            summary["idle_faults"] = ["drop_confirmed_round"]
        # injection starts in round 5, with proofs served in round 3
        if self.options.expired_injection_rate and not self.clients.injected_ids:
            summary.setdefault("idle_faults", []).append("expired_injection_rate")
        summary["injected"]["count"] = len(self.clients.injected_ids)
        summary["block_bytes"] = len(self.latest_block.to_bytes())
        return SimResult(reports, summary)

    def _round(self, round_index: int) -> dict:
        """Take what the network delivers, run the stages in dependency order
        and return the report row.  A stage takes the round index, its input
        (the inbox or an earlier stage's output) and the meters it charges;
        only the round charges `hashes`, once every stage has returned."""
        inbox, delivered_block = self.network.deliver()
        meters = self.network.meters
        before = {cid: counter.hashes for cid, counter in self.counters.items()}
        audit = self._storage_stage(round_index, inbox, delivered_block, meters)
        truncated = self._client_stage(round_index)
        confirmed, discards, disagreements = self._confirm_stage(round_index, inbox, meters)
        supply, conservative = self._oracle_stage(round_index, confirmed, discards)
        self._route_stage(round_index, confirmed)
        state_root = self._fold_stage(round_index, inbox, meters)
        block, verdict, carried = self._emit_stage(round_index, state_root)

        backlog = self.network.in_flight()
        row = {
            "round": round_index,
            "block_height": block.height,
            "state_root": block.state_root.hex(),
            "oracle": verdict,
            "supply": supply,
            "backlog": backlog,
            "audit": audit,
            "truncated": truncated,
            "per_committee": [vars(meter) for meter in meters.values()],
        }

        # every stage has returned: the round adds what they counted
        summary, peaks = self.summary, self.summary["peaks"]
        for cid, meter in meters.items():
            meter.hashes = self.counters[cid].hashes - before[cid]
            peaks["committee_msgs"] = max(
                peaks["committee_msgs"], meter.msgs_in + meter.msgs_out
            )
            if cid[0] == "cc":
                summary["received_total"] += meter.processed
                summary["accepted_total"] += meter.accepted
                peaks["cc_tx"] = max(peaks["cc_tx"], meter.processed)
            elif cid[0] in ("leaf", "inner"):
                peaks["rpc_hashes"] = max(peaks["rpc_hashes"], meter.hashes)
        peaks["backlog"] = max(peaks["backlog"], backlog)
        if supply is not None:
            extremes = summary["supply"]
            extremes["min"] = min(extremes["min"], supply)
            extremes["max"] = max(extremes["max"], supply)
        summary["audit"]["checked"] += audit["checked"]
        summary["workload_truncated_rounds"] += truncated
        summary["discard_reasons"].update(reason for _, reason in discards)
        summary["injected"]["outcomes"].update(
            reason for tx, reason in discards if tx.txid in self.clients.injected_ids
        )
        summary["proof_disagreements"] += disagreements
        summary["conservative_rejections"] += conservative
        summary["latency"]["checked"] += carried
        if verdict == "mismatch":
            summary["latency"]["violations"] += carried
        summary["oracle"]["matches"] += verdict == "match"
        return row

    def _storage_stage(self, round_index: int, inbox, block, meters) -> dict:
        """Storage nodes take their messages, applying an entry round when
        its block arrives, and audit; returns the audit counts."""
        checked = 0
        for key, node in self.storage.items():
            cid = ("storage",) + key
            txs = node.receive(inbox.get(cid, ()), block)
            if txs is None:
                continue
            meters[cid].processed += len(txs)
            if self.options.audit_proofs:
                checked += node.audit(round_index)
        return {"checked": checked, "failed": 0}

    def _client_stage(self, round_index: int) -> bool:
        """Clients settle the entry round leaving the pipeline and submit for
        entry round i+1; returns whether the workload fell short."""
        entry = self.topology.entry_of(round_index - 1)
        self.clients.settle(self.accepted_by_entry.pop(entry, ()))
        if round_index == self.config.rounds:
            return False
        submissions, truncated = self.clients.submit(round_index, self.network)
        for tx in submissions:
            self.network.send(None, [("cc", self._committee_of(tx.src))], tx)
        return truncated

    def _confirm_stage(self, round_index: int, inbox, meters):
        """Returns each committee's accepted sequence, the round's discards
        and its proof disagreements."""
        confirmed = []
        round_discards = []
        disagreements = 0
        for committee in self.ccs:
            cid = ("cc", committee.index)
            accepted, discards, stats = committee.confirm_round(
                inbox.get(cid, ()), round_index, self.history
            )
            meter = meters[cid]
            meter.processed += stats.received
            meter.accepted += stats.accepted
            meter.discarded += len(discards)
            disagreements += stats.proof_disagreements
            confirmed.append(accepted)
            round_discards.extend(discards)
        return confirmed, round_discards, disagreements

    def _oracle_stage(self, round_index: int, confirmed, discards):
        """The oracle checks that no order-respecting interleaving of the
        committees' sequences overdraws and applies their net changes; records
        the root the entry round's block must carry and returns the total
        supply (None with the oracle off) and the `insufficient` discards its
        balance before the round covers."""
        oracle = self.oracle
        if oracle is None:
            return None, 0
        conservative = sum(
            reason == "insufficient" and oracle.balance(tx.src) >= tx.amount
            for tx, reason in discards
        )
        self.expected_roots[round_index] = oracle.apply_sequence(confirmed, round_index)
        return oracle.total_supply(), conservative

    def _route_stage(self, round_index: int, confirmed) -> None:
        """Sends one batch per committee and touched portion to the portion's
        leaf committee and storage replicas, in committee order, and records
        the entry round as its Transfers: the only form clients settle."""
        portion_of = self.topology.portion_of
        leaf_batches: dict[int, dict[int, list]] = {}
        for committee, txs in enumerate(confirmed):
            for tx in txs:
                for portion in {portion_of(tx.src), portion_of(tx.dst)}:
                    leaf_batches.setdefault(portion, {}).setdefault(committee, []).append(tx)
        for portion, by_committee in leaf_batches.items():
            for committee, txs in by_committee.items():
                batch = Batch(round_index, tuple(txs))
                sender = ("cc", committee)
                self.network.send(sender, [("leaf", portion)], batch)
                replicas = [("storage", portion, r) for r in range(self.config.rho)]
                self.network.send(sender, replicas, batch)
        transfers = (tx.transfer for txs in confirmed for tx in txs)
        self.accepted_by_entry[round_index] = tuple(transfers)

    def _fold_stage(self, round_index: int, inbox, meters) -> bytes:
        """Leaves fold the previous entry round, inner tiers fold bottom-up and
        each committee publishes its digests to their readers; returns the
        last digest folded, which is the state root (the single tier-top, or
        the only leaf's digest)."""
        topo = self.topology
        for leaf in self.leaf_rpcs:
            cid = ("leaf", leaf.portion)
            incoming = [tx for batch in inbox.get(cid, ()) for tx in batch.txs]
            top = leaf.process_round(incoming)
            meters[cid].processed += len(incoming)
            self.network.publish(cid, round_index - 1, {(topo.portion_bits, leaf.portion): top})

        for t, tier in enumerate(topo.tiers):
            for p in range(tier.count):
                cid = ("inner", t, p)
                rpc = self.inner_rpcs[(t, p)]
                children = inbox.get(cid, ())
                top, computed = rpc.fold_round(children)
                meters[cid].processed += len(children)
                self.network.publish(cid, round_index - 2 - t, computed)
        return top

    def _emit_stage(self, round_index: int, state_root: bytes):
        """Broadcasts the next block; returns it with the oracle's verdict and
        the number of transfers it carries.  Latency law: block h carries entry round
        h - q + 1, so the oracle's verdict on it checks those transfers."""
        block = next_block(self.latest_block, state_root)
        self.latest_block = block
        self.history.push(block)  # read by next round's confirmation
        tiers = self.topology.tiers
        emitter = ("inner", len(tiers) - 1, 0) if tiers else ("leaf", 0)
        self.network.broadcast(emitter, block)
        entry = self.topology.entry_of(block.height)
        carried = len(self.accepted_by_entry.get(entry, ()))
        if self.oracle is None:
            return block, "n/a", carried
        expected = self.expected_roots.pop(entry, self.genesis_block.state_root)
        return block, "match" if block.state_root == expected else "mismatch", carried

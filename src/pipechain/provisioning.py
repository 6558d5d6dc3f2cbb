"""Dimensioning formulas and the proportional-scaling experiment."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .engine import Simulation
from .pipeline import build_topology, fold_levels


def fold_capacity(hash_budget: int) -> int:
    """Hashes actually spent by a full affordable fold: 2**fold_levels - 1."""
    return (1 << fold_levels(hash_budget)) - 1


@dataclass(frozen=True)
class Provisioning:
    changes_per_round: int
    leaf_capacity: int
    hash_budget: int
    fold_levels: int
    fold_capacity: int
    leaf_rpcs: int
    inner_rpcs: int
    cc_count: int
    rpc_levels: int
    stages: int

    @property
    def total_committees(self) -> int:
        return self.cc_count + self.leaf_rpcs + self.inner_rpcs


def _provisioning(m, e, j, leaf, cc_count) -> Provisioning:
    """The deployment a run with `leaf` leaf committees and hash budget j
    builds: its inner committees, levels and stages are build_topology's, in
    the narrowest address space that fits (the counts do not depend on it)."""
    if cc_count < 0:
        raise ValueError("cc_count must be >= 0")
    topology = build_topology(leaf, j, leaf.bit_length())
    return Provisioning(
        changes_per_round=m,
        leaf_capacity=e,
        hash_budget=j,
        fold_levels=fold_levels(j),
        fold_capacity=fold_capacity(j),
        leaf_rpcs=leaf,
        inner_rpcs=topology.inner_count,
        cc_count=cc_count,
        rpc_levels=topology.rpc_levels,
        stages=topology.stages,
    )


def provision_after_doubling(
    changes_per_round: int, leaf_capacity: int, hash_budget: int, cc_count: int = 0
) -> Provisioning:
    """Committee counts right after a doubling step: leaf RPCs run at half
    capacity (2m/e of them) so the system absorbs growth until the next
    doubling."""
    m, e = changes_per_round, leaf_capacity
    if m < 1 or e < 1:
        raise ValueError("workload and capacity must be >= 1")
    ratio, rem = divmod(m, e)
    if rem or ratio & (ratio - 1):
        raise ValueError("changes/capacity must be a power of two after doubling")
    return _provisioning(m, e, hash_budget, 2 * ratio, cc_count)


def provision_minimal(
    changes_per_round: int, leaf_capacity: int, hash_budget: int, cc_count: int = 0
) -> Provisioning:
    """Smallest deployment that absorbs the stated steady workload: the
    smallest power of two L of leaf RPCs with L * e >= m."""
    m, e = changes_per_round, leaf_capacity
    if m < 1 or e < 1:
        raise ValueError("workload and capacity must be >= 1")
    leaf = 1 << (-(-m // e) - 1).bit_length()
    return _provisioning(m, e, hash_budget, leaf, cc_count)


@dataclass(frozen=True)
class ScaleRun:
    alpha: int
    config: object
    inner_rpcs: int
    stages: int
    committees_total: int
    peak_cc_tx: int
    peak_rpc_hashes: int
    peak_msgs: int
    block_bytes: int
    oracle_ok: bool
    verdict: str  # "well-provisioned", "overloaded" or "truncated"

    @property
    def well_provisioned(self) -> bool:
        return self.verdict == "well-provisioned"


def scale_experiment(base_config, alphas, *, progress=None):
    """Run the same workload-per-committee at alpha times the scale.

    base_config must itself be dimensioned per provision_after_doubling.
    Every run keeps the base seed and stratifies sources per committee. A run
    in which any round could not draw f/n_c sources for every committee did
    not carry the stated load, so it reads truncated whatever its peaks. Any
    other run is well-provisioned when the oracle matches every block, no
    single RPC exceeds its hash budget, and no committee sees more
    transactions than its per-round capacity; otherwise it is overloaded.
    """
    if base_config.f % base_config.n_c:
        raise ValueError("f must divide evenly across confirmation committees")
    prov0 = provision_after_doubling(2 * base_config.f, base_config.e, base_config.j)
    if prov0.leaf_rpcs != base_config.leaf_count:
        raise ValueError(
            "base config is not sized after-doubling: "
            f"leaf_count {base_config.leaf_count} != {prov0.leaf_rpcs}"
        )
    capacity = base_config.f // base_config.n_c
    runs: list[ScaleRun] = []
    for alpha in alphas:
        if alpha < 1 or int(alpha) != alpha:
            raise ValueError("alpha must be a positive integer")
        alpha = int(alpha)
        cfg = replace(
            base_config,
            f=alpha * base_config.f,
            n_c=alpha * base_config.n_c,
            leaf_count=alpha * base_config.leaf_count,
        )
        result = Simulation(cfg, balanced_workload=True).run()
        peaks = result.summary["peaks"]
        committees = result.summary["committees"]
        # an oracle mismatch always ends the run with a fatal verdict
        well = result.ok and peaks["rpc_hashes"] <= cfg.j and peaks["cc_tx"] <= capacity
        verdict = "well-provisioned" if well else "overloaded"
        if result.summary["workload_truncated_rounds"]:
            verdict = "truncated"
        runs.append(
            ScaleRun(
                alpha=alpha,
                config=cfg,
                inner_rpcs=committees["inner"],
                stages=result.summary["stages"],
                committees_total=sum(committees[k] for k in ("cc", "leaf", "inner")),
                peak_cc_tx=peaks["cc_tx"],
                peak_rpc_hashes=peaks["rpc_hashes"],
                peak_msgs=peaks["committee_msgs"],
                block_bytes=result.summary["block_bytes"],
                oracle_ok=result.ok,
                verdict=verdict,
            )
        )
        if progress is not None:
            progress(runs[-1])
    return runs

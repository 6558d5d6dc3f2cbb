"""Dimensioning formulas and the proportional-scaling experiment."""

from __future__ import annotations

from dataclasses import dataclass, replace


def fold_levels(hash_budget: int) -> int:
    """Levels of pairwise hashing one committee can finish in a round.

    A complete fold of L levels costs 2**L - 1 hashes, so the largest
    affordable L is floor(log2(hash_budget + 1)).
    """
    if hash_budget < 1:
        raise ValueError("hash_budget must be >= 1")
    return (hash_budget + 1).bit_length() - 1


def fold_capacity(hash_budget: int) -> int:
    """Hashes actually spent by a full affordable fold: 2**fold_levels - 1."""
    return (1 << fold_levels(hash_budget)) - 1


def tier_levels(leaf_count: int, hash_budget: int) -> tuple[int, ...]:
    """Tree levels each inner tier folds above leaf_count portion roots,
    bottom-up: full folds of fold_levels(hash_budget), any remainder on top.
    One leaf committee needs no tier."""
    per_tier = fold_levels(hash_budget)
    full, rest = divmod(leaf_count.bit_length() - 1, per_tier)
    return (per_tier,) * full + ((rest,) if rest else ())


def min_committees(
    changes_per_round: int, leaf_capacity: int, hash_budget: int
) -> tuple[int, int]:
    """Minimum (leaf, inner) committee counts that keep every round's work
    within per-committee capacity under a uniform workload."""
    if changes_per_round < 1 or leaf_capacity < 1:
        raise ValueError("workload and capacity must be >= 1")
    # smallest power of two L with L * leaf_capacity >= changes_per_round
    leaf = 1 << (-(-changes_per_round // leaf_capacity) - 1).bit_length()
    inner = -(-(leaf - 1) // fold_capacity(hash_budget))
    return leaf, inner


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


def _provisioning(m, e, j, leaf, inner, cc_count) -> Provisioning:
    """The deployment of leaf and inner committees folded as tier_levels says."""
    if cc_count < 0:
        raise ValueError("cc_count must be >= 0")
    rpc_levels = 1 + len(tier_levels(leaf, j))
    return Provisioning(
        changes_per_round=m,
        leaf_capacity=e,
        hash_budget=j,
        fold_levels=fold_levels(j),
        fold_capacity=fold_capacity(j),
        leaf_rpcs=leaf,
        inner_rpcs=inner,
        cc_count=cc_count,
        rpc_levels=rpc_levels,
        stages=rpc_levels + 1,
    )


def provision_after_doubling(
    changes_per_round: int, leaf_capacity: int, hash_budget: int, cc_count: int = 0
) -> Provisioning:
    """Committee counts right after a doubling step: leaf RPCs run at half
    capacity (2m/e of them) so the system absorbs growth until the next
    doubling; inner RPCs are packed full-fold."""
    m, e = changes_per_round, leaf_capacity
    if m < 1 or e < 1:
        raise ValueError("workload and capacity must be >= 1")
    ratio, rem = divmod(m, e)
    if rem or ratio & (ratio - 1):
        raise ValueError("changes/capacity must be a power of two after doubling")
    leaf = 2 * ratio
    inner = -(-leaf // fold_capacity(hash_budget))
    return _provisioning(m, e, hash_budget, leaf, inner, cc_count)


def provision_minimal(
    changes_per_round: int, leaf_capacity: int, hash_budget: int, cc_count: int = 0
) -> Provisioning:
    """Smallest deployment that absorbs the stated steady workload."""
    leaf, inner = min_committees(changes_per_round, leaf_capacity, hash_budget)
    return _provisioning(
        changes_per_round, leaf_capacity, hash_budget, leaf, inner, cc_count
    )


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
    well_provisioned: bool


def scale_experiment(base_config, alphas, *, progress=None):
    """Run the same workload-per-committee at alpha times the scale.

    base_config must itself be dimensioned per provision_after_doubling.
    Every run keeps the base seed, stratifies sources per committee, and is
    judged well-provisioned when the oracle matches every block, no single
    RPC exceeds its hash budget, and no committee sees more transactions
    than its per-round capacity.
    """
    from .engine import Simulation  # deferred: engine imports this module

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
        oracle_ok = result.ok and result.summary["oracle"]["mismatches"] == 0
        well = (
            oracle_ok
            and peaks["rpc_hashes"] <= cfg.j
            and peaks["cc_tx"] <= capacity
        )
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
                oracle_ok=oracle_ok,
                well_provisioned=well,
            )
        )
        if progress is not None:
            progress(runs[-1])
    return runs

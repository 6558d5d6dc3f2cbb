"""Dimensioning rules and the proportional-scaling experiment.

Each dimensioning mode decides only the leaf count L; the rest of the
deployment is what build_topology makes of L and the hash budget j.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .engine import Simulation


def provision_after_doubling(changes_per_round: int, leaf_capacity: int) -> int:
    """Leaf RPCs right after a doubling step: they run at half capacity
    (2m/e of them) so the system absorbs growth until the next doubling."""
    m, e = changes_per_round, leaf_capacity
    if m < 1 or e < 1:
        raise ValueError("workload and capacity must be >= 1")
    ratio, rem = divmod(m, e)
    if rem or ratio & (ratio - 1):
        raise ValueError("changes/capacity must be a power of two after doubling")
    return 2 * ratio


def provision_minimal(changes_per_round: int, leaf_capacity: int) -> int:
    """Leaf RPCs of the smallest deployment that absorbs the stated steady
    workload: the smallest power of two L with L * e >= m."""
    m, e = changes_per_round, leaf_capacity
    if m < 1 or e < 1:
        raise ValueError("workload and capacity must be >= 1")
    return 1 << (-(-m // e) - 1).bit_length()


@dataclass(frozen=True)
class ScaleRun:
    alpha: int
    summary: dict  # the run's summary, as its report's last line holds it
    verdict: str  # "well-provisioned", "overloaded" or "truncated"

    @property
    def well_provisioned(self) -> bool:
        return self.verdict == "well-provisioned"


def scale_experiment(base_config, alphas, *, progress=None):
    """Run the same workload-per-committee at alpha times the scale.

    base_config must itself be dimensioned per provision_after_doubling, and
    every alpha must be a positive integer; both are checked before the first
    run. Every run keeps the base seed and stratifies sources per committee.
    A run in which any round could not draw f/n_c sources for every committee
    did not carry the stated load, so it reads truncated whatever its peaks.
    Any other run is well-provisioned when the oracle matches every block, no
    single RPC exceeds its hash budget, and no committee sees more
    transactions than its per-round capacity; otherwise it is overloaded.
    """
    if base_config.f % base_config.n_c:
        raise ValueError("f must divide evenly across confirmation committees")
    leaf = provision_after_doubling(2 * base_config.f, base_config.e)
    if leaf != base_config.leaf_count:
        raise ValueError(
            "base config is not sized after-doubling: "
            f"leaf_count {base_config.leaf_count} != {leaf}"
        )
    if any(alpha < 1 or int(alpha) != alpha for alpha in alphas):
        raise ValueError("alpha must be a positive integer")
    capacity = base_config.f // base_config.n_c
    runs: list[ScaleRun] = []
    for alpha in map(int, alphas):
        cfg = replace(
            base_config,
            f=alpha * base_config.f,
            n_c=alpha * base_config.n_c,
            leaf_count=alpha * base_config.leaf_count,
        )
        result = Simulation(cfg, balanced_workload=True).run()
        peaks = result.summary["peaks"]
        # an oracle mismatch always ends the run with a fatal verdict
        well = result.ok and peaks["rpc_hashes"] <= cfg.j and peaks["cc_tx"] <= capacity
        verdict = "well-provisioned" if well else "overloaded"
        if result.summary["workload_truncated_rounds"]:
            verdict = "truncated"
        runs.append(ScaleRun(alpha, result.summary, verdict))
        if progress is not None:
            progress(runs[-1])
    return runs

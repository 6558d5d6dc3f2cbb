"""Round-based simulator of a pipelined committee ledger.

Confirmation committees admit proof-carrying transfers against a truncated
block history, a tree of root-hash committees folds per-portion Merkle
digests into one constant-size block per round, and replicated storage
nodes keep every balance provable against the newest root.
"""

from .committee import CommitteeRoundStats, ConfirmationCommittee, roll_forward_balance
from .engine import SimConfig, SimResult, Simulation, report_lines
from .ledger import (
    GENESIS_PREV_HASH,
    Block,
    BlockHistory,
    Transaction,
    block_hash,
    cc_index,
    transaction_id,
)
from .merkle import (
    BalanceProof,
    ConflictingPlaceholder,
    HashCounter,
    MerkleError,
    NotStored,
    PathNotMaterialized,
    PrunedTree,
    build_pruned,
    leaf_hash,
    node_hash,
    verify_proof,
)
from .oracle import LedgerOracle, NonNegativityViolation, full_tree_root
from .pipeline import (
    InnerRpc, LeafRpc, PipelineFault, RpcTopology, build_topology, fold_digests
)
from .provisioning import (
    Provisioning,
    ScaleRun,
    fold_capacity,
    fold_levels,
    min_committees,
    provision_after_doubling,
    provision_minimal,
    scale_experiment,
)
from .storage import StateDivergence, StorageNode

__version__ = "0.1.0"

__all__ = [
    "BalanceProof",
    "Block",
    "BlockHistory",
    "CommitteeRoundStats",
    "ConfirmationCommittee",
    "ConflictingPlaceholder",
    "GENESIS_PREV_HASH",
    "HashCounter",
    "InnerRpc",
    "LeafRpc",
    "LedgerOracle",
    "MerkleError",
    "NonNegativityViolation",
    "NotStored",
    "PathNotMaterialized",
    "PipelineFault",
    "Provisioning",
    "PrunedTree",
    "RpcTopology",
    "ScaleRun",
    "SimConfig",
    "SimResult",
    "Simulation",
    "StateDivergence",
    "StorageNode",
    "Transaction",
    "block_hash",
    "build_pruned",
    "build_topology",
    "cc_index",
    "fold_capacity",
    "fold_digests",
    "fold_levels",
    "full_tree_root",
    "leaf_hash",
    "min_committees",
    "node_hash",
    "provision_after_doubling",
    "provision_minimal",
    "report_lines",
    "roll_forward_balance",
    "scale_experiment",
    "transaction_id",
    "verify_proof",
]

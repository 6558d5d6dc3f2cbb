"""Round-based simulator of a pipelined committee ledger.

Confirmation committees admit proof-carrying transfers against a truncated
block history, a tree of root-hash committees folds per-portion Merkle
digests into one constant-size block per round, and replicated storage
nodes keep every balance provable against the newest root.  The package
exports the simulation surface; every other name comes from its module.
"""

from .engine import SimConfig, SimResult, Simulation, report_lines

__all__ = ["SimConfig", "SimResult", "Simulation", "report_lines"]

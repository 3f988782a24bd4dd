"""Baseline architectures the paper argues against: shared-nothing
data-partitioning (§2.3) and message-broadcast data sharing (§3.3).

Both are a :class:`~repro.baselines.cluster.Cluster`: the sysplex's
systems, shared DASD, WLM and lock space with no coupling facility, one
transaction path with one deadlock-retry loop, and the same measured
window as the sysplex.  Each module adds only its own protocol.
"""

from .broadcast import BroadcastCluster
from .partitioned import PartitionedCluster

__all__ = ["BroadcastCluster", "PartitionedCluster"]

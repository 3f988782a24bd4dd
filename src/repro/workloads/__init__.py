"""Synthetic workloads: OLTP (CICS/DBCTL-like), decision support, and
demand-fluctuation traces (paper §2.3, §4)."""

from .dss import Query, QuerySplitter
from .oltp import OltpGenerator, PageSampler, Transaction
from .traces import DemandTrace, rotating_hotspot_trace

__all__ = [
    "DemandTrace",
    "OltpGenerator",
    "PageSampler",
    "Query",
    "QuerySplitter",
    "Transaction",
    "rotating_hotspot_trace",
]

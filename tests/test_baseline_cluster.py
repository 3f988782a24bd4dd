"""The cluster skeleton both baselines share.

Both baselines run one transaction path: admission, the deadlock-retry
loop and its abort path over every system the transaction touched.
These tests drive a deadlock through that path on each baseline and
check that a window nobody reset measures from t = 0.
"""

import pytest

from repro.baselines import BroadcastCluster, PartitionedCluster
from repro.config import DatabaseConfig, SysplexConfig
from repro.simkernel import Event
from repro.workloads.oltp import OltpGenerator, Transaction

N_PAGES = 12_000


def small_cfg(n_systems=2):
    return SysplexConfig(
        n_systems=n_systems,
        data_sharing=False,
        n_cfs=0,
        db=DatabaseConfig(n_pages=N_PAGES, buffer_pages=4_000, deadlock_interval=0.01),
    )


@pytest.mark.parametrize("cls", [BroadcastCluster, PartitionedCluster])
def test_opposite_lock_order_deadlocks_then_both_complete(cls):
    """Two writers lock two pages in opposite order, one on each system
    (each page's owner, on the partitioned cluster).  The detector aborts
    one; its abort undoes, unlocks and retries, and both commit."""
    cluster = cls(small_cfg())
    low, high = 10, N_PAGES - 10  # one page in each partition
    txns = [
        Transaction(1, 0.0, 0, reads=[], writes=[low, high]),
        Transaction(2, 0.0, 1, reads=[], writes=[high, low]),
    ]
    for txn in txns:
        txn.done = Event(cluster.sim)
        cluster.route(txn)
    cluster.sim.run(until=1.0)
    assert cluster.deadlock_retries >= 1
    assert cluster.completed == 2
    assert cluster.failed_txns == 0
    assert all(txn.done.triggered for txn in txns)
    assert cluster.lock_space._resources == {}
    assert all(not m.locks.held for m in cluster.members)
    assert all(not m.log.in_flight for m in cluster.members)


@pytest.mark.parametrize("cls", [BroadcastCluster, PartitionedCluster])
def test_collect_without_reset_measures_from_time_zero(cls):
    """The window opens at construction: collect() with no reset equals
    a run whose window is reset at t = 0."""

    def run(reset):
        config = small_cfg()
        cluster = cls(config)
        gen = OltpGenerator(
            cluster.sim,
            config.oltp,
            config.db.n_pages,
            config.n_systems,
            cluster.streams.stream("oltp"),
            router=cluster,
        )
        gen.start_open_loop(120.0)
        if reset:
            cluster.reset_measurement()
        cluster.sim.run(until=0.3)
        return cluster.collect("window")

    unreset = run(reset=False)
    assert unreset.completed > 0
    assert unreset.duration == 0.3
    assert unreset.to_dict() == run(reset=True).to_dict()

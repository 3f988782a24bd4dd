"""Tests for the shared-nothing and broadcast-coherency baselines."""


from repro.baselines import BroadcastCluster, PartitionedCluster
from repro.config import DatabaseConfig, SysplexConfig
from repro.workloads.oltp import OltpGenerator


def small_cfg(n_systems=2):
    return SysplexConfig(
        n_systems=n_systems,
        data_sharing=False,
        n_cfs=0,
        db=DatabaseConfig(n_pages=12_000, buffer_pages=4_000),
    )


def drive(cluster, config, seconds=0.8, tps=120.0, affinity=False):
    gen = OltpGenerator(
        cluster.sim, config.oltp, config.db.n_pages, config.n_systems,
        cluster.streams.stream("oltp"), router=cluster,
        partition_affinity=affinity,
    )
    gen.start_open_loop(tps)
    cluster.sim.run(until=seconds)
    return gen


# --------------------------------------------------------- partitioned ----
def test_partitioned_owner_map_covers_all_pages():
    cluster = PartitionedCluster(small_cfg(3))
    owners = {cluster.owner_of(p) for p in range(0, 12_000, 37)}
    assert owners == {0, 1, 2}
    assert cluster.owner_of(0) == 0
    assert cluster.owner_of(11_999) == 2


def test_partitioned_completes_transactions():
    config = small_cfg(2)
    cluster = PartitionedCluster(config)
    drive(cluster, config)
    assert cluster.completed > 30
    r = cluster.collect("p")
    assert r.throughput > 0
    assert r.response_mean > 0


def test_partitioned_pays_for_remote_access():
    """Cross-partition transactions function-ship and 2PC."""
    config = small_cfg(2)
    cluster = PartitionedCluster(config)
    drive(cluster, config)  # zipf over the whole space: many remote pages
    assert cluster.remote_calls > 0
    assert cluster.two_phase_commits > 0


def test_partitioned_affinity_workload_stays_local():
    config = small_cfg(2)
    cluster = PartitionedCluster(config)
    drive(cluster, config, affinity=True)
    # a tuned workload mostly avoids shipping (remote_fraction=0.1)
    ratio = cluster.remote_calls / max(cluster.completed, 1)
    assert ratio < 0.25 * (config.oltp.reads_per_txn
                           + config.oltp.writes_per_txn)


def test_partitioned_add_system_has_outage():
    config = small_cfg(2)
    cluster = PartitionedCluster(config)
    gen = drive(cluster, config, seconds=0.3)
    window = cluster.add_system()
    assert window > 0
    assert cluster.n_partitions == 3
    before = cluster.failed_txns
    cluster.sim.run(until=cluster.sim.now + min(window, 0.2))
    assert cluster.failed_txns > before  # arrivals during the move are lost


def test_partitioned_dead_owner_loses_its_partition():
    config = small_cfg(2)
    cluster = PartitionedCluster(config)
    cluster.nodes[0].fail()
    drive(cluster, config, seconds=0.5)
    # roughly half the arrivals target the dead partition and fail
    assert cluster.failed_txns > 0


# ------------------------------------------------------------ broadcast ----
def test_broadcast_completes_transactions():
    config = small_cfg(2)
    cluster = BroadcastCluster(config)
    drive(cluster, config)
    assert cluster.completed > 30


def test_broadcast_sends_invalidations_to_all_peers():
    config = small_cfg(4)
    cluster = BroadcastCluster(config)
    drive(cluster, config, seconds=0.5)
    # every committed write broadcasts to the 3 peers (3 writes per txn)
    assert cluster.invalidation_messages >= 3 * cluster.completed * 0.9


def test_broadcast_remote_lock_fraction_grows_with_n():
    counts = {}
    for n in (2, 4):
        config = small_cfg(n)
        cluster = BroadcastCluster(config)
        drive(cluster, config, seconds=0.4)
        total_locks = cluster.completed * (
            config.oltp.reads_per_txn + config.oltp.writes_per_txn + 1)
        counts[n] = cluster.remote_lock_requests / max(total_locks, 1)
    assert counts[4] > counts[2]  # (N-1)/N mastering probability


def test_broadcast_stale_readers_reread_dasd():
    config = small_cfg(2)
    cluster = BroadcastCluster(config)
    drive(cluster, config, seconds=0.8)
    # version-stale pool entries forced DASD rereads
    assert cluster.farm.total_ios > 0


def test_broadcast_pools_stay_within_their_capacity():
    """A committed write records its page the way a read does, so a
    pool under replacement pressure holds at most ``buffer_pages``
    pages, every one of them in its first-in first-out order."""
    config = SysplexConfig(
        n_systems=2,
        data_sharing=False,
        n_cfs=0,
        db=DatabaseConfig(n_pages=12_000, buffer_pages=200),
    )
    cluster = BroadcastCluster(config)
    drive(cluster, config, seconds=0.5)
    for member in cluster.members:
        pool = member.buffers
        assert len(pool.seen) == config.db.buffer_pages
        assert set(pool.seen) == set(pool.order)
        assert len(pool.order) == len(pool.seen)

"""The execution profile is one flag on the simulator.

``Sysplex`` turns ``RunOptions.profile`` into ``Simulator(collapse=...)``
and every resource hold reads that flag through ``Resource.acquire``.
These tests check the translation, that every DASD device of a sysplex
follows it, and that the baseline clusters never collapse.
"""

import pytest

from repro.baselines import BroadcastCluster, PartitionedCluster
from repro.config import SysplexConfig
from repro.options import RunOptions
from repro.sysplex import Sysplex


def small_cfg(**kw):
    return SysplexConfig(n_systems=2, **kw)


def _idle_io_events(device):
    """The calendar events one I/O on an idle ``device`` waits on."""
    io = device.io()
    waits = 0
    try:
        next(io)
        while True:
            waits += 1
            io.send(None)
    except StopIteration:
        pass
    return waits


def _all_devices(plex):
    logs = [inst.log.device for inst in plex.instances.values()]
    return plex.farm.devices + logs + [plex.cds.primary, plex.cds.alternate]


def test_sysplex_turns_the_profile_into_the_simulator_flag():
    assert Sysplex(small_cfg()).sim.collapse is True
    assert Sysplex(small_cfg(), RunOptions(profile="sweep")).sim.collapse is True
    assert Sysplex(small_cfg(), RunOptions(profile="verify")).sim.collapse is False


@pytest.mark.parametrize("profile, events", [("sweep", 1), ("verify", 2)])
def test_every_dasd_device_follows_the_profile(profile, events):
    """An idle I/O is the service wait alone on a collapsing simulator,
    and a path grant plus the service wait otherwise: on the farm, the
    log devices and the couple data sets alike."""
    plex = Sysplex(small_cfg(), RunOptions(profile=profile))
    devices = _all_devices(plex)
    assert len(devices) == len(plex.farm.devices) + 2 + 2
    for device in devices:
        assert _idle_io_events(device) == events, device.name
        assert device.paths.in_use == 0, device.name


@pytest.mark.parametrize("cls", [BroadcastCluster, PartitionedCluster])
def test_baseline_clusters_never_collapse(cls):
    cluster = cls(small_cfg(data_sharing=False, n_cfs=0))
    assert cluster.sim.collapse is False
    engines = cluster.nodes[0].cpu.engines
    req = engines.acquire()
    assert req is not None
    engines.drop(req)
    assert engines.in_use == 0

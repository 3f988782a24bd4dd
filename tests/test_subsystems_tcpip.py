"""Tests for the TCP/IP single-system-image layer (Sysplex Distributor,
dynamic VIPA takeover, DNS round-robin baseline)."""


from repro import RunOptions
from repro.config import DatabaseConfig, SysplexConfig
from repro.runner import build_loaded_sysplex
from repro.simkernel import Tally
from repro.subsystems.tcpip import (
    DnsRoundRobin,
    SysplexDistributor,
    TcpStack,
    WebConfig,
    WebWorkload,
)


def make_web(n=3, scheme="sd"):
    cfg = SysplexConfig(
        n_systems=n,
        db=DatabaseConfig(n_pages=6_000, buffer_pages=2_000),
    )
    plex, gen = build_loaded_sysplex(cfg, options=RunOptions(terminals_per_system=0))
    web_cfg = WebConfig()
    stacks = [
        TcpStack(plex.sim, inst.node, plex.farm, web_cfg,
                 plex.streams.stream(f"web-{name}"), plex.metrics)
        for name, inst in plex.instances.items()
    ]
    if scheme == "sd":
        router = SysplexDistributor(plex.sim, stacks, plex.wlm, web_cfg,
                                    plex.metrics)
    else:
        router = DnsRoundRobin(plex.sim, stacks, web_cfg, plex.metrics)
    return plex, stacks, router, web_cfg


def test_connection_serves_all_requests():
    plex, stacks, router, web_cfg = make_web()
    rt = Tally()

    def client():
        yield from router.connect(rt)

    plex.sim.process(client())
    plex.sim.run(until=2.0)
    assert rt.n == web_cfg.requests_per_connection
    assert sum(s.connections_served for s in stacks) == 1
    assert rt.percentile(0) > 0  # every response took time


def test_distributor_spreads_connections():
    plex, stacks, router, web_cfg = make_web()
    workload = WebWorkload(plex.sim, router, plex.streams.stream("gen"))
    workload.start(connections_per_second=300)
    plex.sim.run(until=2.0)
    served = [s.connections_served for s in stacks]
    assert sum(served) > 100
    assert all(c > 0 for c in served)  # everyone participates
    # routed >= served: the tail connections are still in flight
    assert router.connections_routed >= sum(served)


def test_distributor_routes_around_dead_backend():
    plex, stacks, router, web_cfg = make_web()
    workload = WebWorkload(plex.sim, router, plex.streams.stream("gen"))
    workload.start(connections_per_second=200)
    plex.sim.call_at(0.5, plex.nodes[2].fail)
    plex.sim.run(until=2.0)
    # no connection refused: new work flows to the survivors
    assert plex.metrics.counter("web.conn_refused").count == 0
    # the dead stack stopped serving right away
    dead_served_early = stacks[2].connections_served
    plex.sim.run(until=3.0)
    assert stacks[2].connections_served == dead_served_early


def test_vipa_takeover_when_distributor_dies():
    plex, stacks, router, web_cfg = make_web()
    workload = WebWorkload(plex.sim, router, plex.streams.stream("gen"))
    workload.start(connections_per_second=200)
    assert router.distributing == 0
    plex.sim.call_at(0.5, plex.nodes[0].fail)
    plex.sim.run(until=3.0)
    assert router.takeovers == 1
    assert router.distributing != 0
    # service resumed after the takeover pause
    assert stacks[1].connections_served + stacks[2].connections_served > 50


def test_dns_round_robin_fails_connections_during_ttl():
    plex, stacks, router, web_cfg = make_web(scheme="dns")
    workload = WebWorkload(plex.sim, router, plex.streams.stream("gen"))
    workload.start(connections_per_second=200)
    plex.sim.call_at(0.5, plex.nodes[1].fail)
    ttl_end = 0.5 + web_cfg.dns_ttl
    plex.sim.run(until=ttl_end)
    refused_in_ttl = plex.metrics.counter("web.conn_refused").count
    assert refused_in_ttl > 10  # stale A-record keeps being resolved
    # leave a grace window for in-flight timeouts to land, then measure
    plex.sim.run(until=ttl_end + 0.5)
    refused_grace = plex.metrics.counter("web.conn_refused").count
    plex.sim.run(until=ttl_end + 2.5)
    refused_after = plex.metrics.counter("web.conn_refused").count
    # after the TTL expires the resolver stops handing out the corpse
    rate_during = refused_in_ttl / web_cfg.dns_ttl
    rate_after = (refused_after - refused_grace) / 2.0
    assert rate_after < 0.1 * rate_during


def test_broken_connections_counted_on_mid_connection_death():
    plex, stacks, router, web_cfg = make_web()
    workload = WebWorkload(plex.sim, router, plex.streams.stream("gen"))
    workload.start(connections_per_second=400)
    plex.sim.call_at(0.5, plex.nodes[1].fail)
    plex.sim.run(until=1.5)
    assert plex.metrics.counter("web.conn_broken").count > 0

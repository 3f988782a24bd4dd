"""CF request-level robustness: timeout, interface control check, retry.

The regression the chaos work demands: a CF command in flight on a link
that dies mid-transfer must surface an interface control check, back
off, redrive on a surviving link, and complete — and a command stuck
behind a congested CF must time out and redrive rather than spin
forever.  The structure mutation must execute exactly once across
redrives.
"""

import pytest

from repro import RunOptions
from repro.cf.commands import CfRequestTimeout
from repro.config import CfConfig, DatabaseConfig, SysplexConfig
from repro.hardware.links import InterfaceControlCheck, LinkDownError
from repro.runner import build_loaded_sysplex


def robust_cfg(n=2, timeout=0.05, retries=3, **kw):
    return SysplexConfig(
        n_systems=n,
        db=DatabaseConfig(n_pages=8_000, buffer_pages=3_000),
        cf=CfConfig(request_timeout=timeout, request_retries=retries),
        **kw,
    )


def quiet_plex(cfg):
    return build_loaded_sysplex(
        cfg, options=RunOptions(terminals_per_system=0))


# ------------------------------------------------ ICC redirect + retry ----
def test_link_death_mid_flight_redrives_on_survivor():
    """The acceptance scenario: in-flight command on a failing link times
    out with an interface control check, backs off, retries on the
    surviving link, and completes."""
    plex, _ = quiet_plex(robust_cfg())
    inst = plex.instances["SYS00"]
    port = inst.xes_lock.port
    links = inst.node.cf_links["CF01"]
    results = []

    def work():
        # ~2 ms transfer: long enough to kill the link under it
        out = yield from port.sync(lambda: "ok", out_bytes=200_000)
        results.append(out)

    plex.sim.process(work())
    # both links idle => pick() takes link 0; kill it mid-transfer
    plex.sim.call_at(0.001, lambda: links.fail_link(0))
    plex.sim.run(until=1.0)

    assert results == ["ok"]
    assert port.iccs >= 1
    assert port.retries >= 1
    assert links.links[1].ops >= 1  # the redrive used the survivor


def test_mutation_executes_once_across_redrives():
    """Redrives re-pay the trip but never re-run the structure op."""
    plex, _ = quiet_plex(robust_cfg())
    inst = plex.instances["SYS00"]
    port = inst.xes_lock.port
    links = inst.node.cf_links["CF01"]
    calls = []

    def work():
        # service_factor stretches CF execution to ~3 ms so the link dies
        # AFTER the mutation ran but BEFORE the response returned
        out = yield from port.sync(
            lambda: calls.append(1) or "done", service_factor=1000.0)
        return out

    plex.sim.process(work())
    plex.sim.call_at(0.0015, lambda: links.fail_link(0))
    plex.sim.run(until=1.0)

    assert port.iccs >= 1
    assert calls == [1]  # exactly once, despite the redrive


# ------------------------------------------------ timeout + redrive ----
def test_congested_cf_times_out_then_completes():
    plex, _ = quiet_plex(robust_cfg(timeout=0.002, retries=5))
    inst = plex.instances["SYS00"]
    port = inst.xes_lock.port
    cf = plex.cfs[0]
    results = []

    def blocker():
        # occupy both CF engines for 5 ms: every attempt inside that
        # window exceeds the 2 ms request timeout
        yield from cf.execute(0.005)

    def work():
        out = yield from port.sync(lambda: "ok")
        results.append(out)

    plex.sim.process(blocker())
    plex.sim.process(blocker())
    plex.sim.process(work())
    plex.sim.run(until=1.0)

    assert results == ["ok"]
    assert port.timeouts >= 1
    assert port.retries >= 1


def test_exhausted_retry_budget_raises_timeout():
    plex, _ = quiet_plex(robust_cfg(timeout=0.001, retries=2))
    inst = plex.instances["SYS00"]
    port = inst.xes_lock.port
    cf = plex.cfs[0]
    errors = []

    calls = []

    def blocker():
        yield from cf.execute(1.0)  # congested until t=1.0

    def work():
        try:
            yield from port.sync(lambda: calls.append(plex.sim.now))
        except CfRequestTimeout as exc:
            errors.append(exc)

    plex.sim.process(blocker())
    plex.sim.process(blocker())
    plex.sim.process(work())
    plex.sim.run(until=2.0)

    assert len(errors) == 1
    assert port.timeouts == 3  # initial attempt + 2 redrives
    # the abandoned attempts reach the CF once it frees up, after the
    # requester gave up: none of them may apply the mutation
    assert calls == []


def test_all_links_down_raises_link_error_on_robust_path():
    plex, _ = quiet_plex(robust_cfg())
    inst = plex.instances["SYS00"]
    port = inst.xes_lock.port
    links = inst.node.cf_links["CF01"]
    for i in range(len(links.links)):
        links.fail_link(i)
    errors = []

    def work():
        try:
            yield from port.sync(lambda: "ok")
        except LinkDownError as exc:
            errors.append(exc)

    plex.sim.process(work())
    plex.sim.run(until=1.0)
    assert len(errors) == 1


def test_icc_is_a_link_down_error():
    # the TM's except clause catches both through one base class
    assert issubclass(InterfaceControlCheck, LinkDownError)


# ------------------------------------------------ fast path untouched ----
def test_fast_path_runs_without_robustness_counters():
    plex, _ = quiet_plex(
        SysplexConfig(n_systems=2,
                      db=DatabaseConfig(n_pages=8_000, buffer_pages=3_000)))
    inst = plex.instances["SYS00"]
    port = inst.xes_lock.port
    assert port.config.request_timeout is None
    assert port.retry_rng is None  # no jitter stream created
    results = []

    def work():
        out = yield from port.sync(lambda: "ok")
        results.append(out)

    plex.sim.process(work())
    plex.sim.run(until=0.1)
    assert results == ["ok"]
    assert (port.timeouts, port.iccs, port.retries) == (0, 0, 0)


def test_retry_jitter_stream_created_when_enabled():
    plex, _ = quiet_plex(robust_cfg())
    for inst in plex.instances.values():
        assert inst.xes_lock.port.retry_rng is not None


# ------------------------------------------------ under load ----
def test_transactions_survive_link_loss_under_robustness():
    """Mainline work keeps completing when a link dies under load."""
    plex, _ = build_loaded_sysplex(
        robust_cfg(), options=RunOptions(terminals_per_system=3))
    inst = plex.instances["SYS00"]
    links = inst.node.cf_links["CF01"]
    plex.injector.at(0.3, f"link-fail:{links.name}.0", lambda: links.fail_link(0))
    plex.sim.run(until=1.0)
    assert inst.tm.completed > 0
    assert plex.metrics.counter("txn.failed").count == 0
    assert plex.injector.log_events() == [[0.3, "link-fail:SYS00-CF01.0"]]


def test_timeout_budget_must_be_positive():
    with pytest.raises(ValueError):
        robust_cfg(timeout=-1.0)

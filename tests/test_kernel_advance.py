"""``Simulator.advance_to``: a skipped wait changes nothing but the count.

A process that would yield a wait which pops next anyway moves the clock
there and goes on instead.  The kernel edge tests pin the three
conditions under which that is exact (the only callback of the event
being dispatched, inside the run's horizon, strictly before the
calendar's head).  The equivalence oracle runs whole sysplex points
twice, once with the skip disabled, and requires the same payload bytes
and strictly more kernel events without it.
"""

import hashlib
import json

import pytest

from repro.config import CpuConfig
from repro.executor import _payload_from
from repro.experiments.common import scaled_config
from repro.experiments.exp_chaos import chaos_spec
from repro.experiments.tab1_overhead import tab1_specs
from repro.hardware.cpu import CpuComplex
from repro.options import RunOptions
from repro.runspec import RunSpec, canonical_json
from repro.simkernel import Simulator


def _wait_until(sim, t):
    if not sim.advance_to(t):
        yield sim.timeout_at(t)


# --------------------------------------------------------- kernel edges ----
def test_skip_on_empty_calendar_inside_horizon():
    seen = []

    def proc(sim):
        yield from _wait_until(sim, 1.0)
        seen.append(sim.now)

    sim = Simulator()
    sim.process(proc(sim))
    sim.run(until=5.0)
    assert seen == [1.0]
    # the start event and the terminal event; the wait was no event
    assert sim.events_processed == 2


def test_no_skip_outside_run():
    sim = Simulator()
    assert not sim.advance_to(1.0)
    assert sim.now == 0.0


def test_second_waiter_sees_the_old_now():
    """Two processes wait on one event and the first burns CPU: the
    event has two callbacks, so the burn yields and the second process
    still runs at the instant the event fired."""
    sim = Simulator(collapse=True)
    cpu = CpuComplex(sim, CpuConfig())
    gate = sim.event()
    seen = []

    def burner():
        yield gate
        yield from cpu.consume(0.5)
        seen.append(("burner", sim.now))

    def watcher():
        yield gate
        seen.append(("watcher", sim.now))

    def opener():
        yield sim.timeout(1.0)
        gate.succeed()

    sim.process(burner())
    sim.process(watcher())
    sim.process(opener())
    sim.run()
    assert seen == [("watcher", 1.0), ("burner", 1.5)]


def test_no_skip_across_run_until():
    """A wait past the horizon stays a wait: the process is suspended
    when run(until=t) returns and its side effect is absent."""
    after = []

    def proc(sim):
        yield from _wait_until(sim, 2.0)
        after.append(sim.now)

    sim = Simulator()
    p = sim.process(proc(sim))
    sim.run(until=1.0)
    assert sim.now == 1.0
    assert after == []
    assert not p.triggered
    sim.run()
    assert after == [2.0]


def test_no_skip_on_a_tie_with_the_head():
    """An event due at exactly ``when`` was scheduled first and pops
    first; the wait must yield so it runs before the process goes on."""
    order = []

    def early(sim):
        yield sim.timeout(1.0)
        order.append("early")

    def proc(sim):
        skipped = sim.advance_to(1.0)
        order.append(("skipped", skipped))
        if not skipped:
            yield sim.timeout_at(1.0)
        order.append("late")

    sim = Simulator()
    sim.process(early(sim))
    sim.process(proc(sim))
    sim.run()
    assert order == [("skipped", False), "early", "late"]


# ------------------------------------------------- equivalence oracle ----
def _counted_run(run, monkeypatch, skip):
    """``run()``'s result and the kernel events of every simulator it
    built, with ``advance_to`` live or forced to decline."""
    sims = []
    init = Simulator.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    with monkeypatch.context() as m:
        m.setattr(Simulator, "__init__", tracking_init)
        if not skip:
            m.setattr(Simulator, "advance_to", lambda self, when: False)
        result = run()
    return result, sum(s.events_processed for s in sims)


def _sha_completed(result):
    payload = json.loads(canonical_json(_payload_from(result)))
    data = payload["data"]
    completed = data.get("summary", data)["completed"]
    sha = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    return sha, completed


def _fallback_spec():
    """The golden subchannel-fallback point: six engines per system
    contend for the subchannels, so some syncs leave the collapsed
    frame mid-command."""
    return RunSpec(
        config=scaled_config(2, 6, seed=1),
        duration=0.25,
        warmup=0.15,
        options=RunOptions(),
        label="2x6-DS subchannel",
    )


def _oracle_specs():
    tab1 = {s.label: s for s in tab1_specs()}
    duplexed = chaos_spec(seed=1, duplex="all", horizon=1.5, drain=1.0, window=0.5)
    return {
        "1-system no-DS": tab1["1-system no-DS"],
        "4-system DS": tab1["4-system DS"].replace(profile="sweep"),
        "duplex chaos verify": duplexed.replace(profile="verify"),
        "duplex chaos sweep": duplexed.replace(profile="sweep"),
        "subchannel fallback": _fallback_spec(),
    }


@pytest.mark.parametrize("name", list(_oracle_specs()))
def test_skipping_waits_changes_no_payload_byte(name, monkeypatch):
    spec = _oracle_specs()[name]
    with_skip, events = _counted_run(spec.run, monkeypatch, skip=True)
    without, events_all = _counted_run(spec.run, monkeypatch, skip=False)
    assert _sha_completed(with_skip) == _sha_completed(without)
    assert events < events_all

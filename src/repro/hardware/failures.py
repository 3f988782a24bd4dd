"""Failure injection: scripted outages for availability experiments.

Reproduces the paper's §2.5 scenarios: unplanned system loss (hardware or
software) and planned removal for maintenance ("rolled through the
parallel sysplex one system at a time").  CF, link and DASD-path faults
are scheduled through the generic :meth:`FailureInjector.at` with the
component's own ``fail``/``repair`` method as the action.

Every scheduled action is logged as ``(time, label)``; the labels name
the affected component (``crash:SYS02``, ``link-fail:SYS00-CF01.1``) so
experiments can report event timelines alongside their measurements.
:class:`~repro.chaos.ChaosEngine` drives this same injector with sampled
(rather than scripted) fault times.
"""

from __future__ import annotations

from typing import Callable, List

from ..simkernel import Simulator

__all__ = ["FailureInjector"]


class FailureInjector:
    """Schedules failure/repair actions at absolute simulated times."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.log: List[tuple] = []

    def at(self, when: float, label: str, action: Callable[[], None]) -> None:
        """Schedule an arbitrary labelled action (logged when it fires).

        The building block under every scenario method below; any other
        fault (``at(t, "cf-fail:CF01", cf.fail)``) goes through the same
        logged path.
        """
        def fire():
            self.log.append((self.sim.now, label))
            action()

        self.sim.call_at(when, fire)

    def log_events(self) -> List[list]:
        """The fired-event log as JSON-ready ``[time, label]`` rows."""
        return [[t, label] for t, label in self.log]

    # -- systems ----------------------------------------------------------
    def crash_system(self, node, at: float) -> None:
        """Unplanned outage: the image dies without warning."""
        self.at(at, f"crash:{node.name}", node.fail)

    def restart_system(self, node, at: float) -> None:
        self.at(at, f"restart:{node.name}", node.restart)

    def planned_outage(self, node, at: float, duration: float) -> None:
        """Planned removal + later re-introduction (rolling maintenance)."""
        self.crash_system(node, at)
        self.restart_system(node, at + duration)

    def rolling_maintenance(self, nodes, start: float, outage: float,
                            gap: float) -> None:
        """Take each system down in turn, one at a time (paper §2.5)."""
        t = start
        for node in nodes:
            self.planned_outage(node, t, outage)
            t += outage + gap

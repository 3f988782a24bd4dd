"""Discrete-event simulation kernel underpinning the Parallel Sysplex model."""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    StopSimulation,
    Timeout,
    NORMAL,
    URGENT,
)
from .monitor import Counter, MetricSet, Tally, TimeWeighted
from .random import RandomStreams, zipf_weights
from .resources import Container, Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Container",
    "Counter",
    "Event",
    "Interrupt",
    "MetricSet",
    "NORMAL",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "Tally",
    "TimeWeighted",
    "Timeout",
    "URGENT",
    "zipf_weights",
]

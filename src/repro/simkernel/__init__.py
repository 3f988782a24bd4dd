"""Discrete-event simulation kernel underpinning the Parallel Sysplex model."""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Process,
    SimulationError,
    Simulator,
    StopSimulation,
    Timeout,
    NORMAL,
    URGENT,
)
from .monitor import Counter, MetricSet, Tally
from .random import RandomStreams, zipf_weights
from .resources import Request, Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Counter",
    "Event",
    "MetricSet",
    "NORMAL",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Tally",
    "Timeout",
    "URGENT",
    "zipf_weights",
]

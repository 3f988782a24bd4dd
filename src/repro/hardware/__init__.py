"""Hardware substrate: CPUs, coupling links, DASD, timer, failure injection."""

from .cpu import CpuComplex
from .dasd import DasdDevice, DasdFarm
from .failures import FailureInjector
from .links import (
    CouplingLink,
    InterfaceControlCheck,
    LinkDownError,
    LinkSet,
)
from .system import SystemDown, SystemNode
from .timer import SysplexTimer, TodClock

__all__ = [
    "CouplingLink",
    "CpuComplex",
    "DasdDevice",
    "DasdFarm",
    "FailureInjector",
    "InterfaceControlCheck",
    "LinkDownError",
    "LinkSet",
    "SysplexTimer",
    "SystemDown",
    "SystemNode",
    "TodClock",
]

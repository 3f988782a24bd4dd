"""MVS multi-system services: couple data sets, heartbeat/SFM, XES, WLM,
the Automatic Restart Manager and the operations console (paper §2.1,
§3.2).  XCF group signalling and RACF are not modelled: no claim the
repo measures rests on them (see DESIGN.md §6)."""

from .arm import ArmElement, AutomaticRestartManager
from .cds import CdsUnavailableError, CoupleDataSet
from .heartbeat import SysplexMonitor
from .operations import OperationsConsole
from .wlm import ServiceClass, WorkloadManager
from .xes import XesConnection, XesServices

__all__ = [
    "ArmElement",
    "AutomaticRestartManager",
    "CdsUnavailableError",
    "CoupleDataSet",
    "OperationsConsole",
    "ServiceClass",
    "SysplexMonitor",
    "WorkloadManager",
    "XesConnection",
    "XesServices",
]

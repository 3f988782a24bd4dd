"""Drive options: how a sysplex run is loaded, routed, and observed.

:class:`RunOptions` is the frozen bundle of workload-drive parameters
that used to travel as loose keyword arguments through
:func:`repro.runner.run_oltp` and :func:`repro.runner.build_loaded_sysplex`
(``mode=``, ``router_policy=``, ``tracing=``, ...).  Bundling them gives
the public API one typed, hashable, JSON-serializable object that

* :func:`repro.run` and the runner entry points accept directly,
* :class:`repro.runspec.RunSpec` embeds verbatim, so the drive options
  participate in the spec's content hash (and therefore in the result
  cache's identity rule).

Execution profiles
------------------

``profile`` is the one execution knob.  :class:`~repro.sysplex.Sysplex`
turns it into one flag, ``Simulator(collapse=...)``; no other code
translates it.  Both profiles run the same single-heap kernel and the same
cost model; they differ only in whether events may collapse:

* ``"sweep"`` (the default) — a collapsing simulator: the collapsed CF
  sync frame, scalar holds on idle engines, subchannels, CF processors,
  region tasks and every DASD device's paths (farm, log and couple data
  sets), and no terminal events for processes nobody waits on.  Statistically
  indistinguishable from ``verify`` (and perfectly deterministic per
  spec hash), but *not* byte-identical to it at saturation.
  Experiments, fuzzing and chaos runs use this.
* ``"verify"`` — no collapsing: every CF command takes the general
  path.  Byte-identical to the historical golden results; use it to
  (re)generate golden fixtures or to double-check a sweep result.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

__all__ = ["RunOptions", "OPTION_FIELDS", "PROFILES"]

#: The two workload drive modes (see OltpGenerator): ``closed`` keeps a
#: fixed terminal population in think/submit loops; ``open`` offers an
#: arrival stream at a fixed rate regardless of completions.
_MODES = ("closed", "open")

#: Execution profiles: ``sweep`` collapses events, ``verify`` does not.
PROFILES = ("sweep", "verify")


@dataclass(frozen=True)
class RunOptions:
    """How to drive one simulation run (everything but *what* to build).

    All fields are plain data so the bundle serializes losslessly into
    :meth:`RunSpec.to_dict <repro.runspec.RunSpec.to_dict>` and hashes
    into ``RunSpec.content_hash``.
    """

    #: ``"closed"`` (terminals with think time) or ``"open"`` (Poisson
    #: offered load).
    mode: str = "closed"
    #: Work routing policy: ``"local"``, ``"threshold"`` (the paper's
    #: stay-local-unless-overloaded), or ``"wlm"``.
    router_policy: str = "threshold"
    #: Attach the heartbeat/SFM monitor to every system.
    monitoring: bool = True
    #: Attach the transaction-level span tracer (overhead attribution).
    tracing: bool = False
    #: Closed-loop terminal count per system; ``None`` derives it from
    #: the config (``terminals_per_cpu * n_cpus``).
    terminals_per_system: Optional[int] = None
    #: Open-loop offered transactions/second per system.
    offered_tps_per_system: float = 200.0
    #: Execution profile: ``"sweep"`` (event-collapsed; the default) or
    #: ``"verify"`` (golden, byte-identical to historical results).  See
    #: the module docstring.
    profile: str = "sweep"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown drive mode {self.mode!r} (expected one of {_MODES})"
            )
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r} "
                f"(expected one of {PROFILES})"
            )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "router_policy": self.router_policy,
            "monitoring": self.monitoring,
            "tracing": self.tracing,
            "terminals_per_system": self.terminals_per_system,
            "offered_tps_per_system": self.offered_tps_per_system,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunOptions":
        """Rebuild options saved by :meth:`to_dict`.

        Dicts from before ``profile`` became the only knob carry two more
        keys.  ``scheduler`` is dropped: both of its backends popped
        events in the same order, so it never changed a result.  A
        non-null ``collapse`` override becomes the profile it selected
        (``True`` -> ``"sweep"``, ``False`` -> ``"verify"``).
        """
        data = dict(data)
        data.pop("scheduler", None)
        collapse = data.pop("collapse", None)
        if collapse is not None:
            data["profile"] = "sweep" if collapse else "verify"
        return cls(**data)

    def replace(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (frozen-dataclass friendly)."""
        return replace(self, **changes)


#: Field names of :class:`RunOptions` — the keys
#: :meth:`RunSpec.replace <repro.runspec.RunSpec.replace>` routes into
#: the nested options bundle.
OPTION_FIELDS = frozenset(f.name for f in fields(RunOptions))

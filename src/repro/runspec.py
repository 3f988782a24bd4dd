"""Declarative run specifications.

A :class:`RunSpec` is a frozen, JSON-serializable description of one
independent simulation run: the :class:`~repro.config.SysplexConfig` to
build plus the drive parameters (mode, duration, warmup, routing,
tracing, …) or — for experiments whose drive logic is richer than a
plain OLTP window — the dotted name of a *scenario runner* plus its
parameters.  Experiments declare their sweep as a list of RunSpecs and
hand it to :func:`repro.executor.execute`, which may run the specs
in-process, across a process pool, or answer them from the on-disk
result cache.

The contract that makes all of that safe is **content addressing**: two
specs with equal :meth:`RunSpec.content_hash` produce bit-identical
results, whichever way they are executed.  The hash covers the canonical
JSON form of the spec (config tree included) plus a schema version, so
cache entries are invalidated wholesale when the spec format changes.

Runner resolution
-----------------

``RunSpec.runner`` names the function that executes the spec:

* ``"oltp"`` (the default) — :func:`repro.runner.run_spec`, a measured
  OLTP window via :func:`repro.runner.run_oltp`;
* ``"package.module:function"`` — any importable function taking the
  spec and returning either a :class:`~repro.metrics.RunResult` or a
  JSON-serializable payload (dict/list of plain data).

The dotted-path form is what lets a subprocess worker re-resolve the
runner without the parent shipping code objects across the pipe.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional

from .config import SysplexConfig
from .options import OPTION_FIELDS, RunOptions

__all__ = [
    "RunSpec",
    "SCHEMA_VERSION",
    "canonical_json",
    "resolve_runner",
]

#: Bumped whenever the serialized spec format (or the meaning of any
#: field) changes, so stale ``.runcache`` entries can never be replayed
#: against a new schema.  v2: drive parameters moved from loose spec
#: fields into a nested :class:`~repro.options.RunOptions` bundle.
#: v3: :class:`~repro.chaos.ChaosConfig` gained the sick-system fault
#: class, and the chaos runner's payload carries pathology observables
#: plus invariant branch coverage (see ``repro.adversaries`` /
#: ``repro.fuzz``).  v4: :class:`~repro.options.RunOptions` gained the
#: execution profile, and ``profile="sweep"`` — the default — runs
#: event-collapsed, so v3 results are not comparable byte-for-byte.
#: (v4 dicts may still carry the retired ``scheduler``/``collapse``
#: overrides; :meth:`RunOptions.from_dict` maps them without changing
#: any result.)
SCHEMA_VERSION = 4

#: Short names for the built-in runners.
RUNNER_ALIASES: Dict[str, str] = {
    "oltp": "repro.runner:run_spec",
}

_RUNNER_CACHE: Dict[str, Callable[["RunSpec"], Any]] = {}


def resolve_runner(name: str) -> Callable[["RunSpec"], Any]:
    """Import and return the runner function behind ``name``."""
    target = RUNNER_ALIASES.get(name, name)
    fn = _RUNNER_CACHE.get(target)
    if fn is None:
        module_name, sep, attr = target.partition(":")
        if not sep:
            raise ValueError(
                f"unknown runner {name!r}: not an alias and not a "
                f"'module:function' path"
            )
        fn = getattr(importlib.import_module(module_name), attr)
        _RUNNER_CACHE[target] = fn
    return fn


def _json_default(obj: Any) -> Any:
    # Scenario payloads occasionally carry numpy scalars (counters,
    # balance indices); coerce them so canonical JSON never depends on
    # whether a runner used numpy or builtin arithmetic.
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {obj!r} ({type(obj).__name__})")


def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr'd floats."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      default=_json_default)


@dataclass(frozen=True)
class RunSpec:
    """One independent, reproducible simulation run, as data.

    ``config`` says *what* to build, ``options`` says *how* to drive it
    (mirroring :func:`repro.runner.run_oltp`); scenario runners are free
    to interpret ``params`` however they like (everything in it must be
    JSON-serializable).
    """

    runner: str = "oltp"
    config: Optional[SysplexConfig] = None
    duration: float = 1.0
    warmup: float = 0.3
    options: RunOptions = RunOptions()
    label: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)

    # -- drive-option views ------------------------------------------------
    # Read-only pass-throughs so spec consumers (runners, reports) can say
    # ``spec.tracing`` without reaching into the bundle.

    @property
    def mode(self) -> str:
        return self.options.mode

    @property
    def router_policy(self) -> str:
        return self.options.router_policy

    @property
    def monitoring(self) -> bool:
        return self.options.monitoring

    @property
    def tracing(self) -> bool:
        return self.options.tracing

    @property
    def terminals_per_system(self) -> Optional[int]:
        return self.options.terminals_per_system

    @property
    def offered_tps_per_system(self) -> float:
        return self.options.offered_tps_per_system

    @property
    def profile(self) -> str:
        return self.options.profile

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        d = {
            "runner": self.runner,
            "config": self.config.to_dict() if self.config else None,
            "duration": self.duration,
            "warmup": self.warmup,
            "options": self.options.to_dict(),
            "label": self.label,
            "params": dict(self.params),
        }
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        kw = dict(data)
        if kw.get("config") is not None:
            kw["config"] = SysplexConfig.from_dict(kw["config"])
        opts = kw.get("options")
        if isinstance(opts, dict):
            kw["options"] = RunOptions.from_dict(opts)
        # schema-v1 dicts carried the drive options as flat spec keys
        flat = {k: kw.pop(k) for k in list(kw) if k in OPTION_FIELDS}
        if flat:
            kw["options"] = kw.get("options", RunOptions()).replace(**flat)
        return cls(**kw)

    def to_json(self) -> str:
        """This spec as a standalone, human-diffable repro file.

        The schema version travels with the spec so a saved repro (e.g. a
        shrunk fuzz finding) refuses to replay against an incompatible
        spec format instead of silently meaning something else.
        """
        return json.dumps(
            {"schema": SCHEMA_VERSION, "spec": self.to_dict()},
            indent=2, sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Rebuild a spec saved by :meth:`to_json` (or a bare spec dict)."""
        data = json.loads(text)
        if "spec" in data and "config" not in data:
            schema = data.get("schema")
            if schema != SCHEMA_VERSION:
                raise ValueError(
                    f"spec file has schema {schema!r}, this build expects "
                    f"{SCHEMA_VERSION}"
                )
            data = data["spec"]
        return cls.from_dict(data)

    def replace(self, **changes) -> "RunSpec":
        """A copy with ``changes`` applied (frozen-dataclass friendly).

        Drive-option names are routed into the nested bundle, so
        ``spec.replace(tracing=True)`` keeps working exactly as it did
        when tracing was a flat spec field.
        """
        opt_changes = {k: changes.pop(k) for k in list(changes)
                       if k in OPTION_FIELDS}
        if opt_changes:
            base = changes.get("options", self.options)
            changes["options"] = base.replace(**opt_changes)
        return replace(self, **changes)

    # -- identity ----------------------------------------------------------
    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical spec (hex digest).

        Equal hashes mean "same simulation": the executor's cache and its
        determinism guarantee both key off this value.
        """
        payload = {"schema": SCHEMA_VERSION, "spec": self.to_dict()}
        digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
        return digest.hexdigest()

    def short_hash(self) -> str:
        """First 12 hex chars of :meth:`content_hash` — the display form
        used in progress lines, worker logs, and repro filenames."""
        return self.content_hash()[:12]

    # -- execution ---------------------------------------------------------
    def run(self) -> Any:
        """Execute this spec in-process via its runner."""
        return resolve_runner(self.runner)(self)

"""repro — a behavioural reproduction of the IBM S/390 Parallel Sysplex.

A discrete-event simulation library implementing the architecture of
Nick, Chung & Bowen, "Overview of IBM System/390 Parallel Sysplex — A
Commercial Parallel Processing System" (IPPS 1996): the Coupling Facility
(lock / cache / list structures), the MVS multi-system services (couple
data sets, heartbeat + SFM fencing, XES, WLM, ARM), the exploiting
subsystems (global lock manager, coherent buffer manager, database and
transaction managers, VTAM generic resources), the shared-nothing
baseline the paper argues against, and the workloads/benchmarks that
reproduce its Figure 3 and §4 overhead claims.

Quickstart — :func:`run` is the one entry point::

    from repro import CpuConfig, RunOptions, SysplexConfig, run

    cfg = SysplexConfig(n_systems=4, cpu=CpuConfig(n_cpus=2))
    result = run(cfg, options=RunOptions(router_policy="wlm"), duration=1.0)
    print(result.row())

or, declaratively (cache- and sweep-friendly)::

    from repro import RunSpec, execute

    spec = RunSpec(config=cfg, duration=1.0)
    result = run(spec)              # one spec, in-process
    results = run([spec, ...])      # many specs: routed through execute()
    results = execute([spec, ...], cache=".runcache")
    results = execute([spec, ...], backend=WorkQueueBackend(workers=4))

A sweep runs in-process (``backend=None``, the default) or through a
:class:`WorkQueueBackend` (a work-queue server feeding worker clients
over a socket, spawned locally or across a fleet), with
:func:`execute_iter` streaming completions as they land and
:class:`Progress` rendering per-point progress/ETA lines.  Both paths
return byte-identical results for equal specs.
"""

from typing import Optional, Sequence, Union

from .chaos import ChaosConfig, ChaosEngine, FaultClassConfig
from .config import (
    ArmConfig,
    CfConfig,
    CpuConfig,
    DasdConfig,
    DatabaseConfig,
    LinkConfig,
    OltpConfig,
    SysplexConfig,
    WlmConfig,
    XcfConfig,
)
from .executor import (
    Progress,
    ResultCache,
    WorkQueueBackend,
    execute,
    execute_iter,
)
from .invariants import InvariantChecker, Violation, check_reconvergence
from .metrics import RunResult
from .options import RunOptions
from .runner import build_loaded_sysplex, run_oltp, run_spec
from .runspec import RunSpec
from .sysplex import Instance, Sysplex
from .trace import Span, Tracer
from .trace_analysis import (
    Attribution,
    attribute,
    attribution_delta,
)

__version__ = "2.3.0"


def run(spec_or_config: Union[RunSpec, SysplexConfig],
        options: Optional[RunOptions] = None,
        **kwargs):
    """Run one simulation — the unified front door.

    Accepts either form of "what to run":

    * a :class:`SysplexConfig` — an OLTP window is run over it;
      ``options`` plus any :func:`repro.runner.run_oltp` keywords
      (``duration``, ``warmup``, ``label``, ``trace``) apply directly;
    * a :class:`RunSpec` — executed via its runner; ``options`` and
      keyword overrides (``duration=``, ``tracing=``, ...) are folded
      into the spec with :meth:`RunSpec.replace` first, so the result is
      identical to running the adjusted spec through the executor;
    * a sequence of :class:`RunSpec` — the whole sweep is routed through
      :func:`execute` (``cache=``, ``backend=``, ``progress=`` pass
      straight through) and the results come back in spec order.

    Returns whatever the runner returns — a :class:`RunResult` for OLTP
    runs, a JSON-serializable payload for scenario runners — or the list
    of them for a sweep.
    """
    if (isinstance(spec_or_config, Sequence)
            and not isinstance(spec_or_config, (str, bytes))):
        specs = list(spec_or_config)
        if not all(isinstance(s, RunSpec) for s in specs):
            raise TypeError("run() sweep form expects a sequence of RunSpec")
        if options is not None:
            specs = [s.replace(options=options) for s in specs]
        return execute(specs, **kwargs)
    if isinstance(spec_or_config, RunSpec):
        spec = spec_or_config
        if options is not None:
            spec = spec.replace(options=options)
        if kwargs:
            spec = spec.replace(**kwargs)
        return spec.run()
    if isinstance(spec_or_config, SysplexConfig):
        return run_oltp(spec_or_config, options=options, **kwargs)
    raise TypeError(
        f"run() expects a RunSpec or SysplexConfig, "
        f"got {type(spec_or_config).__name__}"
    )


#: The stable public surface.  Everything else under ``repro.*`` is
#: implementation detail and may move between minor versions.
__all__ = [
    "ArmConfig",
    "Attribution",
    "CfConfig",
    "ChaosConfig",
    "ChaosEngine",
    "CpuConfig",
    "DasdConfig",
    "DatabaseConfig",
    "FaultClassConfig",
    "Instance",
    "InvariantChecker",
    "LinkConfig",
    "OltpConfig",
    "Progress",
    "ResultCache",
    "RunOptions",
    "RunResult",
    "RunSpec",
    "Span",
    "Sysplex",
    "SysplexConfig",
    "Tracer",
    "Violation",
    "WlmConfig",
    "WorkQueueBackend",
    "XcfConfig",
    "attribute",
    "attribution_delta",
    "build_loaded_sysplex",
    "check_reconvergence",
    "execute",
    "execute_iter",
    "run",
    "run_oltp",
    "run_spec",
    "__version__",
]

"""High-level entry points: build a sysplex, drive a workload, measure.

These are the functions behind the :func:`repro.run` facade; each returns
:class:`repro.metrics.RunResult`.  Drive parameters travel as one
:class:`~repro.options.RunOptions` bundle::

    run_oltp(cfg, duration=1.0, options=RunOptions(tracing=True))

(The pre-1.1 loose keyword style — ``run_oltp(cfg, tracing=True)`` —
was deprecated in 1.1 and removed in 2.0.)

The options bundle also carries the execution profile:
``RunOptions(profile="sweep")`` (the default) runs with CF-command event
collapsing — fast and statistically neutral; ``profile="verify"`` runs
the golden no-collapse path, byte-identical to historical results.  See
:mod:`repro.options`.
"""

from __future__ import annotations

import gc
from typing import TYPE_CHECKING, Optional, Tuple

from .config import SysplexConfig
from .metrics import RunResult
from .options import RunOptions
from .sysplex import Sysplex
from .workloads.oltp import OltpGenerator
from .workloads.traces import DemandTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runspec import RunSpec

__all__ = ["run_oltp", "run_spec", "build_loaded_sysplex"]


def build_loaded_sysplex(config: SysplexConfig,
                         options: Optional[RunOptions] = None,
                         trace: Optional[DemandTrace] = None,
                         ) -> Tuple[Sysplex, OltpGenerator]:
    """Construct a sysplex with an OLTP workload attached (not yet run).

    Returns ``(sysplex, generator)`` so callers can inject failures or
    add systems before/while running.  ``options`` bundles the drive
    parameters; ``trace`` optionally replays a recorded demand trace.
    With ``options.tracing`` the transaction-level span tracer is
    attached (see :mod:`repro.trace`), making per-category overhead
    attribution available from ``collect()``.  The options' execution
    profile picks the collapse mode (``"sweep"`` = collapse,
    ``"verify"`` = none).
    """
    opts = options if options is not None else RunOptions()
    plex = Sysplex(config, monitoring=opts.monitoring,
                   router_policy=opts.router_policy, tracing=opts.tracing,
                   collapse=opts.profile == "sweep")
    gen = OltpGenerator(
        plex.sim,
        config.oltp,
        n_pages=config.db.n_pages,
        n_systems=config.n_systems,
        rng=plex.streams.stream("oltp"),
        router=plex.router,
        trace=trace,
        tracer=plex.tracer,
    )
    if opts.mode == "closed":
        terminals = opts.terminals_per_system
        if terminals is None:
            terminals = config.oltp.terminals_per_cpu * config.cpu.n_cpus
        gen.start_closed_loop(terminals)
    else:  # "open" — RunOptions validates the mode at construction
        gen.start_open_loop(opts.offered_tps_per_system)
    # steady-state setup: pools start warm with the hot working set, as
    # they would be after hours of production running
    hot = gen.sampler.hottest(config.db.buffer_pages)
    first, *peers = [inst.buffers for inst in plex.instances.values()]
    first.prewarm(hot, peers=peers)
    return plex, gen


def run_oltp(config: SysplexConfig,
             duration: float = 1.0,
             warmup: float = 0.3,
             options: Optional[RunOptions] = None,
             label: Optional[str] = None,
             trace: Optional[DemandTrace] = None) -> RunResult:
    """Run one measured OLTP window and return its results.

    ``warmup`` simulated seconds are run and discarded (buffer pools fill,
    WLM utilization estimates settle), then ``duration`` seconds are
    measured.  With ``options.tracing`` the result's ``extras``
    additionally carries ``trace.*`` overhead-attribution keys (µs and %%
    of mean response per lifecycle category — see
    :mod:`repro.trace_analysis`).
    """
    opts = options if options is not None else RunOptions()
    plex, _gen = build_loaded_sysplex(config, options=opts, trace=trace)
    # Pause the cycle collector for the run.  Spent requests and
    # processes die by reference count, so a collection mid-run frees
    # nothing, but each one still traverses the objects it tracks: left
    # on, the 16-system perfbench point ran about 120 collections that
    # took 3.6 % of its host time, and its simulated transactions per
    # host second fell 4.4 % (EXPERIMENTS.md PERF-9).  No simulation
    # state is affected, so results are unchanged.
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        plex.sim.run(until=warmup)
        plex.reset_measurement()
        plex.sim.run(until=warmup + duration)
    finally:
        if was_enabled:
            gc.enable()
    if label is None:
        sharing = "DS" if config.data_sharing and config.n_cfs else "noDS"
        label = (
            f"{config.n_systems}x{config.cpu.n_cpus}cpu {sharing} {opts.mode}"
        )
    return plex.collect(label)


def run_spec(spec: "RunSpec") -> RunResult:
    """Execute a declarative OLTP :class:`~repro.runspec.RunSpec`.

    This is the executor's default runner (the ``"oltp"`` alias): the
    spec's config, window, and options map 1:1 onto :func:`run_oltp`.
    """
    if spec.config is None:
        raise ValueError("an 'oltp' RunSpec needs a SysplexConfig")
    return run_oltp(
        spec.config,
        duration=spec.duration,
        warmup=spec.warmup,
        options=spec.options,
        label=spec.label,
    )

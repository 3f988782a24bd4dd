"""Experiment harness: one module per paper figure/claim (see DESIGN.md).

Each module declares its sweep as a list of
:class:`~repro.runspec.RunSpec` (the ``*_specs`` functions), exposes
``run_*`` functions returning plain row data, and a
``main(quick=..., seed=...)`` that prints the table the paper's reader
would want.  The benchmark suite under ``benchmarks/`` drives these
through pytest-benchmark; they are also runnable directly::

    python -m repro.experiments.fig3_scalability
    python -m repro.experiments --filter fig3 --workers 4
"""

from . import (
    abl_granularity,
    abl_links,
    abl_sync_async,
    common,
    exp_availability,
    exp_balancing,
    exp_cf_failover,
    exp_chaos,
    exp_coherency,
    exp_dss,
    exp_duplex,
    exp_generic_resources,
    exp_goal_mode,
    exp_growth,
    exp_listqueue,
    exp_locktable,
    exp_web,
    fig3_scalability,
    tab1_overhead,
)

__all__ = [
    "abl_granularity",
    "abl_links",
    "abl_sync_async",
    "common",
    "exp_availability",
    "exp_balancing",
    "exp_cf_failover",
    "exp_chaos",
    "exp_coherency",
    "exp_dss",
    "exp_duplex",
    "exp_generic_resources",
    "exp_goal_mode",
    "exp_growth",
    "exp_listqueue",
    "exp_locktable",
    "exp_web",
    "fig3_scalability",
    "tab1_overhead",
]

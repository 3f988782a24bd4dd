"""Experiment driver CLI.

    python -m repro.experiments                      # everything, quick
    python -m repro.experiments --full               # longer runs
    python -m repro.experiments --list               # show experiment names
    python -m repro.experiments --filter fig3        # substring match
    python -m repro.experiments --workers 4          # 4 local workers
    python -m repro.experiments --workers a:4,b:8    # an ssh fleet
    python -m repro.experiments --no-cache           # always re-simulate
    python -m repro.experiments --verify             # golden (byte-identical) profile

Sweeps inside each experiment run in-process by default; with
``--workers`` they fan out over work-queue worker *clients* pulling
tasks from a server the CLI starts.  Results are memoised in a
content-addressed on-disk cache (default ``.runcache/``); a re-run with
identical specs replays from the cache in seconds.  Results are
numerically identical in-process, on any workers, and for cache hits —
every path round-trips through the same canonical JSON.

The CLI builds one frozen :class:`~repro.experiments.common.Execution`
from its flags and threads it explicitly through every experiment's
``main(...)`` — there is no module-global execution state.
"""

from __future__ import annotations

import argparse
import time

from ..distrib.launcher import worker_backend
from ..executor import DEFAULT_CACHE_DIR, ResultCache
from . import (
    abl_granularity,
    abl_links,
    abl_sync_async,
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
from .common import Execution

ALL = (
    fig3_scalability,
    tab1_overhead,
    exp_balancing,
    exp_availability,
    exp_cf_failover,
    exp_duplex,
    exp_chaos,
    exp_locktable,
    exp_coherency,
    exp_growth,
    exp_listqueue,
    exp_generic_resources,
    exp_goal_mode,
    exp_web,
    abl_sync_async,
    abl_links,
    abl_granularity,
    exp_dss,
)


def _short_name(mod) -> str:
    return mod.__name__.rsplit(".", 1)[-1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the S/390 Parallel Sysplex reproduction "
        "experiments.",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="longer, lower-variance runs (default: quick settings)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_only",
        help="list experiment names and exit",
    )
    parser.add_argument(
        "--filter", default="", metavar="SUBSTR",
        help="only run experiments whose name contains SUBSTR",
    )
    parser.add_argument(
        "--workers", default=None, metavar="SPEC",
        help="run sweeps on work-queue worker clients: a count ('4', 0 = "
        "one per CPU) or ssh host specs ('host1:4,host2:8'; remote "
        "hosts read the cache over the protocol; default: in-process)",
    )
    parser.add_argument(
        "--worker-cmd", default=None, metavar="TEMPLATE",
        help="launch each --workers slot via this sh -c template "
        "({address}/{name}/{python} substituted) instead of local "
        "subprocesses",
    )
    parser.add_argument(
        "--depth", type=int, default=4, metavar="N",
        help="workqueue pipelining: tasks kept in flight per worker "
        "(default 4; 1 = strict request/reply)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--expect-no-misses", action="store_true",
        help="exit nonzero if any sweep missed the result cache (CI "
        "warm-cache assertion; requires the cache to be enabled)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="master random seed for every experiment (default: 1)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="run every sweep under the golden verify profile (no event "
        "collapsing; byte-identical to historical results) instead of "
        "the fast sweep profile",
    )
    parser.add_argument(
        "--csv-dir", default=None, metavar="DIR",
        help="also write each printed table to DIR as CSV",
    )
    parser.add_argument(
        "--profile", nargs="?", const=True, default=None, metavar="PATH",
        help="profile the run under cProfile and print the top 25 "
        "functions by cumulative time; with PATH, also dump raw pstats "
        "there (runs in-process with --no-cache, whatever --workers "
        "says, so the profile sees the simulation, not workers or "
        "cache)",
    )
    return parser


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)

    selected = [m for m in ALL if args.filter in _short_name(m)]
    if args.list_only:
        for mod in ALL:
            print(_short_name(mod))
        return
    if not selected:
        names = ", ".join(_short_name(m) for m in ALL)
        raise SystemExit(
            f"--filter {args.filter!r} matches no experiment (have: {names})"
        )

    try:
        backend = worker_backend(args.workers, args.worker_cmd, args.depth)
    except ValueError as exc:
        parser.error(str(exc))
    if args.profile is not None:
        # profile the actual simulation: in-process, cache off — workers
        # or a cache replay would leave the profile empty
        backend, args.no_cache = None, True
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.expect_no_misses and cache is None:
        raise SystemExit("--expect-no-misses needs the cache "
                         "(drop --no-cache)")
    execution = Execution(backend=backend, cache=cache,
                          csv_dir=args.csv_dir, progress=True,
                          profile="verify" if args.verify else None)

    quick = not args.full
    t0 = time.time()

    def run_selected() -> None:
        for mod in selected:
            print("\n" + "#" * 72)
            print("#", mod.__name__)
            print("#" * 72)
            mod.main(quick=quick, seed=args.seed, execution=execution)

    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            run_selected()
        finally:
            profiler.disable()
            print("\n" + "=" * 72)
            print("cProfile: top 25 by cumulative time")
            print("=" * 72)
            stats = pstats.Stats(profiler)
            stats.sort_stats("cumulative").print_stats(25)
            if args.profile is not True:
                stats.dump_stats(args.profile)
                print(f"pstats dump written to {args.profile} "
                      "(inspect with: python -m pstats)")
    else:
        run_selected()
    how = (f"workqueue x{backend.parallelism()}" if backend is not None
           else "in-process")
    line = (
        f"\n{len(selected)}/{len(ALL)} experiments done in "
        f"{time.time() - t0:.0f}s "
        f"({'quick' if quick else 'full'} settings, {how}"
    )
    if cache is not None:
        line += f", cache {cache.hits} hits / {cache.misses} misses"
    print(line + ")")
    if args.expect_no_misses and cache is not None and cache.misses:
        raise SystemExit(
            f"--expect-no-misses: cache missed {cache.misses} time(s) — "
            "a re-run with identical specs should replay entirely from "
            "the cache"
        )


if __name__ == "__main__":
    main()

"""Campaign driver: thousand-point overnight grids with a resumable manifest.

A *campaign* is a large deterministic grid of :class:`~repro.runspec.
RunSpec` points — capacity surfaces, chaos soaks, fuzz corpora — driven
through :func:`repro.executor.execute_iter` with ``errors="yield"`` (one
bad point must not sink the night) and checkpointed to an on-disk
manifest as each point lands.  Kill the driver, kill the workers, pull
the power: rerunning the same command reloads the manifest, skips every
point already done, and converges with zero lost or duplicated points,
because the manifest is keyed by content hash — the same identity the
result cache uses.

Layout of a campaign directory::

    campaigns/fuzz-1000-s0/
        manifest.jsonl      # one record per finished point, append-only
        summary.json        # totals + failure triage, rewritten per run

Grids are pure functions of ``(points, seed)``, so the spec list — and
every content hash in it — is reproducible from the command line alone.

Run one::

    python -m repro.campaign --grid fuzz --points 1000 \\
        --workers 4 --depth 8
    python -m repro.campaign --grid capacity --points 500 \\
        --workers big-host:8,bigger-host:16
    python -m repro.campaign --dir campaigns/fuzz-1000-s0 --status
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .distrib.launcher import worker_backend
from .executor import (
    DEFAULT_CACHE_DIR,
    Progress,
    WorkQueueBackend,
    execute_iter,
)
from .runspec import RunSpec

__all__ = [
    "GRIDS",
    "Manifest",
    "build_grid",
    "main",
    "run_campaign",
    "triage",
]

MANIFEST_NAME = "manifest.jsonl"
SUMMARY_NAME = "summary.json"

#: Version of the manifest/summary record layout.
MANIFEST_SCHEMA = 1

GRIDS = ("capacity", "chaos", "fuzz", "micro")


# -- grids -------------------------------------------------------------------


def _capacity_grid(points: int, seed: int) -> List[RunSpec]:
    """Capacity surface: system count x data sharing, many seeds."""
    from .experiments.common import scaled_config

    specs: List[RunSpec] = []
    for round_ in itertools.count():
        for n_sys, sharing in itertools.product(
                (1, 2, 3, 4, 6, 8), (True, False)):
            if len(specs) >= points:
                return specs
            s = 1 + seed + round_
            kind = "ds" if sharing else "nods"
            specs.append(RunSpec(
                config=scaled_config(n_sys, data_sharing=sharing, seed=s),
                duration=0.25, warmup=0.15,
                label=f"cap-{n_sys}-{kind}-s{s}",
            ))
    return specs


def _chaos_grid(points: int, seed: int) -> List[RunSpec]:
    """Chaos soak: fault intensity x duplexing policy x size, many seeds."""
    from .experiments.exp_chaos import chaos_spec

    specs: List[RunSpec] = []
    for round_ in itertools.count():
        for intensity, duplex, n_sys in itertools.product(
                (0.5, 1.0, 2.0), ("none", "lock", "all"), (2, 3, 4)):
            if len(specs) >= points:
                return specs
            specs.append(chaos_spec(
                n_systems=n_sys, seed=1 + seed + round_,
                horizon=1.5, drain=1.0, intensity=intensity, duplex=duplex,
            ))
    return specs


def _fuzz_grid(points: int, seed: int) -> List[RunSpec]:
    """Fuzz corpus: random dimension walks away from the seed specs."""
    from .fuzz import mutate, seed_specs

    rng = random.Random(seed)
    corpus = seed_specs(seed)
    specs: List[RunSpec] = []
    while len(specs) < points:
        mutant, _ops = mutate(rng.choice(corpus), rng)
        specs.append(mutant)
    return specs


def _micro_grid(points: int, seed: int) -> List[RunSpec]:
    """Tiny probe points — per-point overhead dominates, so this grid is
    what makes executor and wire costs (setup, pipelining) measurable."""
    from .experiments.common import scaled_config

    specs: List[RunSpec] = []
    for round_ in itertools.count():
        for n_sys in (2, 3, 4):
            if len(specs) >= points:
                return specs
            s = 1 + seed + round_
            specs.append(RunSpec(
                config=scaled_config(n_sys, seed=s),
                duration=0.05, warmup=0.02,
                label=f"micro-{n_sys}-s{s}",
            ))
    return specs


_GRID_BUILDERS = {
    "capacity": _capacity_grid,
    "chaos": _chaos_grid,
    "fuzz": _fuzz_grid,
    "micro": _micro_grid,
}


def build_grid(grid: str, points: int, seed: int = 0) -> List[RunSpec]:
    """The campaign's spec list — deterministic in ``(grid, points, seed)``."""
    try:
        builder = _GRID_BUILDERS[grid]
    except KeyError:
        raise ValueError(
            f"unknown grid {grid!r}: expected one of {GRIDS}") from None
    if points < 1:
        raise ValueError("points must be >= 1")
    return builder(points, seed)


# -- manifest ----------------------------------------------------------------


class Manifest:
    """Append-only JSONL checkpoint of campaign progress, by content hash.

    Each line is one finished point::

        {"hash": "1f2e...", "status": "done" | "failed", "seconds": 1.9,
         "label": "cap-4-ds-s1", "error": null, "schema": 1}

    The last record for a hash wins, so retrying a failed point simply
    appends its new outcome.  Loading tolerates a torn final line (the
    driver may have been killed mid-write); everything before it counts.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.records: Dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue  # torn tail from a killed driver
                if isinstance(rec, dict) and rec.get("hash"):
                    self.records[rec["hash"]] = rec

    def mark(self, content_hash: str, status: str,
             seconds: float = 0.0, label: Optional[str] = None,
             error: Optional[str] = None) -> None:
        rec = {
            "schema": MANIFEST_SCHEMA,
            "hash": content_hash,
            "status": status,
            "seconds": round(float(seconds), 6),
            "label": label,
            "error": error,
        }
        self.records[content_hash] = rec
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            fh.flush()

    def status_of(self, content_hash: str) -> Optional[str]:
        rec = self.records.get(content_hash)
        return rec.get("status") if rec else None

    def failures(self, hashes: Iterable[str]) -> List[dict]:
        """The failed records among ``hashes``, once each: a shared
        directory's manifest holds other grids' points too."""
        return [rec for rec in map(self.records.get, dict.fromkeys(hashes))
                if rec is not None and rec.get("status") == "failed"]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for rec in self.records.values():
            out[rec.get("status", "?")] = out.get(rec.get("status", "?"), 0) + 1
        return out


def triage(failures: Sequence[dict]) -> List[dict]:
    """Group failure records by their error's first line, worst first."""
    groups: Dict[str, dict] = {}
    for rec in failures:
        head = (rec.get("error") or "unknown").splitlines()[0][:160]
        g = groups.setdefault(head, {
            "error": head, "count": 0,
            "example_hash": rec.get("hash"),
            "example_label": rec.get("label"),
        })
        g["count"] += 1
    return sorted(groups.values(), key=lambda g: -g["count"])


# -- the driver --------------------------------------------------------------


def run_campaign(specs: Sequence[RunSpec], root: Path, *,
                 backend: Optional[WorkQueueBackend] = None,
                 cache: Optional[str] = DEFAULT_CACHE_DIR,
                 retry_failed: bool = True,
                 fresh: bool = False,
                 progress: bool = True,
                 stream=sys.stderr) -> dict:
    """Drive ``specs`` to completion, checkpointing into ``root``.

    Points whose content hash the manifest already marks ``done`` are
    skipped outright (``failed`` points too, with ``retry_failed=
    False``); everything else streams through :func:`execute_iter` with
    ``errors="yield"`` and is checkpointed the moment it lands — in
    this process with ``backend=None``, else on the backend's workers.  The
    returned summary — also written to ``root/summary.json`` — carries
    totals, wall-clock, throughput and a failure triage table.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if fresh:
        try:
            (root / MANIFEST_NAME).unlink()
        except FileNotFoundError:
            pass
    manifest = Manifest(root / MANIFEST_NAME)

    hashes = [spec.content_hash() for spec in specs]
    unique = len(set(hashes))
    todo: List[Tuple[int, str]] = []
    seen_pending = set()
    skipped = 0
    for index, h in enumerate(hashes):
        status = manifest.status_of(h)
        if status == "done" or (status == "failed" and not retry_failed):
            skipped += 1
            continue
        if h in seen_pending:
            continue  # executor would dedup anyway; keep the count honest
        seen_pending.add(h)
        todo.append((index, h))

    if stream is not None:
        print(f"campaign: {len(specs)} point(s), {unique} unique, "
              f"{skipped} already in manifest, {len(todo)} to run",
              file=stream)

    t0 = time.perf_counter()
    done = failed = computed = cached_hits = 0
    run_specs = [specs[i] for i, _ in todo]
    run_hashes = [h for _, h in todo]
    par = backend.parallelism() if backend is not None else 1
    prog = (Progress(len(run_specs), parallelism=par, stream=stream)
            if progress and stream is not None and run_specs else None)
    for c in execute_iter(run_specs, backend=backend,
                          cache=cache, progress=prog, errors="yield"):
        h = run_hashes[c.index]
        if c.error is None:
            done += 1
            computed += 0 if c.cached else 1
            cached_hits += 1 if c.cached else 0
            manifest.mark(h, "done", c.seconds, c.spec.label)
        else:
            failed += 1
            manifest.mark(h, "failed", c.seconds, c.spec.label,
                          error=c.error)
    wall = time.perf_counter() - t0

    counts = manifest.counts()
    summary = {
        "schema": MANIFEST_SCHEMA,
        "points": len(specs),
        "unique_points": unique,
        "skipped_from_manifest": skipped,
        "ran": len(run_specs),
        "done_this_run": done,
        "failed_this_run": failed,
        "computed": computed,
        "cache_hits": cached_hits,
        "manifest": counts,
        # over this grid's hashes: a shared manifest holds other grids' too
        "complete": all(manifest.status_of(h) == "done"
                        for h in set(hashes)),
        "wall_seconds": round(wall, 3),
        "points_per_second": round(len(run_specs) / wall, 3) if wall > 0
        else None,
        "triage": triage(manifest.failures(hashes)),
    }
    (root / SUMMARY_NAME).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return summary


def _report(summary: dict, stream=sys.stderr) -> None:
    print(f"campaign: ran {summary['ran']} "
          f"({summary['done_this_run']} done, "
          f"{summary['failed_this_run']} failed, "
          f"{summary['cache_hits']} cache hits) in "
          f"{summary['wall_seconds']:.1f}s"
          + (f" — {summary['points_per_second']:.1f} pts/s"
             if summary.get("points_per_second") else ""),
          file=stream)
    m = summary["manifest"]
    state = "complete" if summary["complete"] else "INCOMPLETE"
    print(f"campaign: manifest {state}: "
          + ", ".join(f"{v} {k}" for k, v in sorted(m.items()))
          + f" of {summary['unique_points']} unique point(s)",
          file=stream)
    for g in summary["triage"]:
        print(f"  triage: {g['count']}x {g['error']} "
              f"(e.g. {g['example_label'] or g['example_hash'][:12]})",
              file=stream)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run a large resumable grid of simulation points.",
    )
    parser.add_argument("--grid", default="fuzz", choices=GRIDS,
                        help="which grid to run (default: fuzz)")
    parser.add_argument("--points", type=int, default=1000,
                        help="grid size (default: 1000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="grid seed (default: 0)")
    parser.add_argument("--dir", default=None, metavar="DIR",
                        help="campaign directory (default: "
                        "campaigns/<grid>-<points>-s<seed>)")
    parser.add_argument("--cache", default=DEFAULT_CACHE_DIR, metavar="DIR",
                        help=f"result cache (default: {DEFAULT_CACHE_DIR}; "
                        "'none' disables)")
    parser.add_argument("--workers", default=None, metavar="SPEC",
                        help="run the points on work-queue workers: a "
                        "count ('4', 0 = one per CPU) or ssh hosts "
                        "('host1:4,host2:8'); default: in-process")
    parser.add_argument("--worker-cmd", default=None, metavar="TEMPLATE",
                        help="launch each --workers slot via this sh -c "
                        "template ({address}/{name}/{python} substituted)")
    parser.add_argument("--depth", type=int, default=4,
                        help="tasks kept in flight per worker (default: 4)")
    parser.add_argument("--fresh", action="store_true",
                        help="ignore (delete) any existing manifest")
    parser.add_argument("--no-retry-failed", action="store_true",
                        help="skip points the manifest marks failed")
    parser.add_argument("--no-progress", action="store_true",
                        help="suppress per-point progress/ETA lines")
    parser.add_argument("--status", action="store_true",
                        help="print manifest state and exit")
    args = parser.parse_args(argv)
    try:
        backend = worker_backend(args.workers, args.worker_cmd, args.depth)
    except ValueError as exc:
        parser.error(str(exc))

    root = Path(args.dir or
                f"campaigns/{args.grid}-{args.points}-s{args.seed}")

    if args.status:
        manifest = Manifest(root / MANIFEST_NAME)
        counts = manifest.counts()
        hashes = [s.content_hash()
                  for s in build_grid(args.grid, args.points, args.seed)]
        print(f"{root}: " + (", ".join(
            f"{v} {k}" for k, v in sorted(counts.items())) or "empty")
            + f"; grid has {len(hashes)} point(s), "
            f"{len(set(hashes))} unique")
        for g in triage(manifest.failures(hashes)):
            print(f"  triage: {g['count']}x {g['error']}")
        return 0

    specs = build_grid(args.grid, args.points, args.seed)
    cache = None if args.cache == "none" else args.cache
    summary = run_campaign(
        specs, root, backend=backend, cache=cache,
        retry_failed=not args.no_retry_failed, fresh=args.fresh,
        progress=not args.no_progress,
    )
    _report(summary)
    return 0 if summary["complete"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

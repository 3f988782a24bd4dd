"""Shared experiment infrastructure.

All experiments follow the TPC discipline for capacity runs: the database
(and the DASD farm behind it) scales with the configuration under test,
so the curves measure the architecture, not a fixed hot spot.  Every
experiment function returns plain data (lists of dict rows) plus offers a
``print_rows`` rendering so the benchmark harness output reads like the
paper's tables.

Experiments *declare* their sweep as a list of
:class:`~repro.runspec.RunSpec` and hand it to :func:`sweep` together
with an :class:`Execution` — a frozen value object describing *how* to
run it (in-process or through a work-queue backend, result cache,
progress reporting, CSV archiving, forced execution profile).  The
``python -m repro.experiments`` CLI builds one Execution from its flags
and threads it explicitly through every experiment's ``main(...)``;
called directly — as the pytest-benchmark harness does —
``execution=None`` means the defaults: in-process runs, no cache, no
progress.
"""

from __future__ import annotations

import csv
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, List, Optional, Sequence, Union

from ..config import (
    CpuConfig,
    DatabaseConfig,
    SysplexConfig,
)
from ..executor import (
    Progress,
    ResultCache,
    WorkQueueBackend,
    execute,
)
from ..runspec import RunSpec

__all__ = [
    "Execution",
    "scaled_config",
    "print_rows",
    "write_csv",
    "sweep",
    "QUICK",
    "FULL",
]

#: quick settings: used by the pytest-benchmark harness (CI-sized)
QUICK = {"duration": 0.4, "warmup": 0.3}
#: full settings: for the standalone scripts
FULL = {"duration": 1.5, "warmup": 0.8}


@dataclass(frozen=True)
class Execution:
    """How a sweep executes — a frozen config threaded through explicitly.

    * ``backend`` — a :class:`~repro.executor.WorkQueueBackend` whose
      workers run the sweep; None runs it in-process;
    * ``cache`` — a :class:`~repro.executor.ResultCache`, a directory
      path, or None;
    * ``csv_dir`` — when set, every :func:`print_rows` table is archived
      there as CSV;
    * ``progress`` — stream per-point progress/ETA lines to stderr;
    * ``profile`` — force every sweep spec onto one execution profile
      (``"verify"`` for the golden byte-identical configuration); None
      leaves each spec's own ``options.profile`` in charge.

    Being frozen, an Execution can be shared, compared, and defaulted
    without action-at-a-distance: whoever holds one knows exactly how
    their sweep will run.
    """

    backend: Optional[WorkQueueBackend] = field(default=None, compare=False)
    cache: Union[None, str, Path, ResultCache] = field(default=None,
                                                       compare=False)
    csv_dir: Optional[Path] = None
    progress: bool = False
    profile: Optional[str] = None

    def __post_init__(self):
        if self.csv_dir is not None:
            object.__setattr__(self, "csv_dir", Path(self.csv_dir))

    def replace(self, **changes) -> "Execution":
        """A copy with ``changes`` applied (frozen-dataclass friendly)."""
        return replace(self, **changes)

    def parallelism(self) -> int:
        if self.backend is not None:
            return self.backend.parallelism()
        return 1


#: What ``execution=None`` means: plain in-process runs, nothing else.
DEFAULT_EXECUTION = Execution()

_UNSET = object()


def sweep(specs: Sequence[RunSpec],
          execution: Optional[Execution] = None,
          cache: Union[None, str, Path, ResultCache, object] = _UNSET
          ) -> List[Any]:
    """Execute a declared sweep under an :class:`Execution`.

    Results come back in spec order; each is a
    :class:`~repro.metrics.RunResult` or the scenario runner's plain-data
    payload.  ``execution=None`` means :data:`DEFAULT_EXECUTION` (plain
    in-process runs).  An explicit ``cache`` overrides the Execution's
    (pass ``cache=None`` to force a cache-off run).
    """
    ex = execution if execution is not None else DEFAULT_EXECUTION
    if cache is not _UNSET:
        ex = ex.replace(cache=cache)
    if ex.profile is not None:
        specs = [s.replace(profile=ex.profile) for s in specs]
    progress = (Progress(len(specs), parallelism=ex.parallelism(),
                         stream=sys.stderr)
                if ex.progress else None)
    return execute(specs, cache=ex.cache, backend=ex.backend,
                   progress=progress)


def scaled_config(n_systems: int, n_cpus: int = 1,
                  data_sharing: bool = True,
                  pages_per_engine: int = 25_000,
                  dasd_per_engine: int = 16,
                  seed: int = 1,
                  **overrides) -> SysplexConfig:
    """A capacity-run configuration scaled to its engine count."""
    engines = max(2, n_systems * n_cpus)
    n_cfs = overrides.pop("n_cfs", 1 if data_sharing else 0)
    return SysplexConfig(
        n_systems=n_systems,
        cpu=CpuConfig(n_cpus=n_cpus),
        db=DatabaseConfig(n_pages=pages_per_engine * engines),
        n_dasd=dasd_per_engine * engines,
        data_sharing=data_sharing,
        n_cfs=n_cfs,
        seed=seed,
        **overrides,
    )


def print_rows(title: str, rows: List[dict], columns: List[str],
               csv_path: Union[None, str, Path] = None,
               execution: Optional[Execution] = None) -> None:
    """Render rows as a fixed-width table (the bench harness output).

    ``csv_path`` additionally archives the table as a CSV artifact; when
    the governing :class:`Execution` carries a ``csv_dir``, every
    printed table is archived there under a slug of its title.
    """
    print(f"\n== {title} ==")
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) if rows else len(c)
        for c in columns
    }
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns))
    csv_dir = (execution if execution is not None
               else DEFAULT_EXECUTION).csv_dir
    if csv_path is None and csv_dir is not None:
        csv_path = csv_dir / f"{_slug(title)}.csv"
    if csv_path is not None:
        write_csv(csv_path, rows, columns)


def write_csv(path: Union[str, Path], rows: List[dict],
              columns: List[str]) -> Path:
    """Archive sweep rows as a CSV file (parents created as needed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore",
                                restval="")
        writer.writeheader()
        for r in rows:
            writer.writerow({c: r.get(c, "") for c in columns})
    return path


def _slug(title: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")
    return slug[:80] or "table"


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.3f}"
    return str(v)

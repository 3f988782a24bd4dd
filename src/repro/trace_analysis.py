"""Aggregate trace spans into the overhead-attribution table.

Turns a :class:`repro.trace.Tracer`'s raw spans into the decomposition the
paper's §4 argument needs: *where* each microsecond of mean response time
goes — dispatch, lock, coherency, I/O, commit, other — per configuration
size, so the < 18 % / < 0.5 % data-sharing overheads can be reported per
category instead of only in aggregate.

Method: every span's **exclusive** time (its duration minus its direct
children's durations) is attributed to the nearest enclosing *stage*
category (:data:`repro.trace.STAGES`).  A ``cf.sync`` round trip issued
inside a lock acquisition therefore counts toward ``lock``; a DASD read
nested inside a buffer-coherency miss counts toward ``io`` (because
``io`` is itself a stage).  Stage spans partition a transaction's
response time by construction, so the attributed categories plus the
unattributed residual sum to the mean response time exactly; the
*residual* (abort processing, deadlock-retry backoff) being small is the
internal consistency check that no time was double counted or lost.

Reported categories fold the measured ``cpu`` stage into ``other``
(application + database path length is useful work, not sharing
overhead), keeping the table's shape at the issue's six rows:
``dispatch, lock, coherency, io, commit, other``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from .trace import STAGES, Tracer

__all__ = [
    "Attribution",
    "attribute",
    "attribution_extras",
    "attribution_delta",
    "CATEGORIES",
]

#: Rows of the attribution table, in reporting order.
CATEGORIES = ("dispatch", "lock", "coherency", "io", "commit", "other")

_STAGE_SET = frozenset(STAGES)


@dataclass
class Attribution:
    """Per-category decomposition of mean transaction response time."""

    n_txns: int
    #: mean response time of the attributed transactions, in seconds
    response_mean: float
    #: seconds per transaction for each of CATEGORIES
    per_txn: Dict[str, float]
    #: percentage of mean response time for each of CATEGORIES
    pct: Dict[str, float]
    #: measured cpu stage (part of ``other``), seconds per transaction
    cpu_per_txn: float = 0.0
    #: unattributed remainder (part of ``other``), seconds per transaction
    residual_per_txn: float = 0.0
    #: drill-down detail: seconds per transaction by raw span category
    detail_per_txn: Dict[str, float] = field(default_factory=dict)
    #: CF command round trips per transaction (sync + async)
    cf_ops_per_txn: float = 0.0


def _stage_of(spans, idx: int) -> Optional[str]:
    """The nearest enclosing stage category of span ``idx`` (or None)."""
    span = spans[idx]
    while True:
        if span.category in _STAGE_SET:
            return span.category
        if span.parent < 0:
            return None
        span = spans[span.parent]


def attribute(tracer: Tracer, start: float = 0.0,
              end: Optional[float] = None) -> Attribution:
    """Decompose mean response time over the measurement window.

    Only transactions that both *arrived* and *completed* inside
    ``[start, end]`` are attributed, so every one of their spans is in
    the trace and the categories sum to the mean response time exactly.
    """
    if end is None:
        end = tracer.sim.now
    txns = [t for t in tracer.completed if t[1] >= start and t[2] <= end]
    ids = {t[0] for t in txns}
    n = len(txns)
    if n == 0:
        zeros = dict.fromkeys(CATEGORIES, 0.0)
        return Attribution(0, math.nan, dict(zeros), dict(zeros))
    response_total = sum(t[3] for t in txns)

    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0 and span.end is not None:
            child_time[span.parent] += span.end - span.start

    stage_totals = dict.fromkeys(STAGES, 0.0)
    detail_totals: Dict[str, float] = {}
    cf_ops = 0
    for i, span in enumerate(spans):
        if span.end is None or span.txn_id not in ids:
            continue
        duration = span.end - span.start
        detail_totals[span.category] = (
            detail_totals.get(span.category, 0.0) + duration
        )
        if span.category in ("cf.sync", "cf.async"):
            cf_ops += 1
        stage = _stage_of(spans, i)
        if stage is None:
            continue
        stage_totals[stage] += duration - child_time[i]

    measured = sum(stage_totals.values())
    residual = response_total - measured
    per_txn = {
        c: stage_totals[c] / n for c in CATEGORIES if c != "other"
    }
    per_txn["other"] = (stage_totals["cpu"] + residual) / n
    response_mean = response_total / n
    pct = {
        c: 100.0 * v / response_mean if response_mean else 0.0
        for c, v in per_txn.items()
    }
    return Attribution(
        n_txns=n,
        response_mean=response_mean,
        per_txn=per_txn,
        pct=pct,
        cpu_per_txn=stage_totals["cpu"] / n,
        residual_per_txn=residual / n,
        detail_per_txn={c: v / n for c, v in sorted(detail_totals.items())},
        cf_ops_per_txn=cf_ops / n,
    )


def attribution_extras(tracer: Tracer, start: float = 0.0,
                       end: Optional[float] = None) -> Dict[str, float]:
    """Flatten an attribution into ``RunResult.extras`` keys.

    Keys (all floats): ``trace.txns``, ``trace.rt_us`` (mean response of
    the attributed transactions), ``trace.<category>_us`` and
    ``trace.<category>_pct`` for each of :data:`CATEGORIES`, plus the
    ``other`` breakdown ``trace.other_cpu_us`` / ``trace.residual_us``
    and the CF drill-down ``trace.cf_ops_per_txn`` / ``trace.cf_us``.
    """
    a = attribute(tracer, start, end)
    extras: Dict[str, float] = {
        "trace.txns": float(a.n_txns),
        "trace.rt_us": 1e6 * a.response_mean if a.n_txns else 0.0,
    }
    for c in CATEGORIES:
        extras[f"trace.{c}_us"] = 1e6 * a.per_txn[c]
        extras[f"trace.{c}_pct"] = a.pct[c]
    extras["trace.other_cpu_us"] = 1e6 * a.cpu_per_txn
    extras["trace.residual_us"] = 1e6 * a.residual_per_txn
    extras["trace.cf_ops_per_txn"] = a.cf_ops_per_txn
    extras["trace.cf_us"] = 1e6 * a.detail_per_txn.get("cf.sync", 0.0)
    return extras


def attribution_delta(base_extras: Dict[str, float],
                      other_extras: Dict[str, float]) -> Dict[str, float]:
    """Per-category µs/transaction deltas between two traced runs.

    Feeds TAB1: ``attribution_delta(extras_1system, extras_2system)``
    says where the data-sharing transition cost actually goes.
    """
    out: Dict[str, float] = {}
    for c in CATEGORIES:
        key = f"trace.{c}_us"
        if key in base_extras and key in other_extras:
            out[c] = other_extras[key] - base_extras[key]
    if out:
        out["total"] = sum(v for k, v in out.items() if k != "total")
    return out

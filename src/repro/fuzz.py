"""Coverage-guided chaos fuzzer for the sysplex simulator.

``python -m repro.fuzz --budget N --seed S`` runs a deterministic
mutation loop over the chaos-runner scenario space: starting from the
healthy :func:`~repro.adversaries.base_spec`, the adversary catalog, and
one faulty chaos soak spec, it mutates RunSpec dimensions (workload
shape, database geometry, CF structure sizing, robustness settings,
the execution profile — event collapse on or off — and chaos fault
classes), runs each mutant in-process, and keeps the ones
that light up **new coverage features** as seeds for further mutation.

Coverage is a feature map over run *outcomes*, not code: which invariant
branches the checker exercised, which violations fired, which degraded
events and chaos fire/skip combinations occurred, and log-bucketed
pathology observables (lock waits, deadlocks, XI signals, false
contention, castout backlog, …).  A mutant that drives the simulator
somewhere observably new joins the corpus.

Three oracles judge every run:

* **crash** — the runner raised (simulator bug or unhandled interaction);
* **invariant** — :class:`~repro.invariants.InvariantChecker` (plus the
  reconvergence check the chaos runner folds in) recorded a violation;
* **nondet** — a novel run, re-executed from its spec, failed to
  reproduce byte-identically (canonical JSON compare), breaking the
  executor's determinism contract.

Failures are **shrunk** — every spec dimension is walked back toward the
healthy base while the failure key still reproduces — and saved as
standalone JSON repro files loadable with :meth:`RunSpec.from_json` and
replayable via ``python -m repro.fuzz --replay PATH`` (or
:func:`repro.run`).  The whole campaign is a pure function of
``(budget, seed)``: corpus, coverage, and failure files are
byte-identical across re-runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .adversaries import adversary_specs, base_spec, edit_chaos, edit_config
from .executor import canonical_payload
from .runspec import RunSpec, canonical_json

__all__ = [
    "DIMENSIONS",
    "FuzzResult",
    "features",
    "fuzz",
    "load_corpus",
    "main",
    "mutate",
    "outcome_key",
    "replay",
    "seed_specs",
    "shrink",
]

#: Geometry shared by every seed and mutant: short horizon keeps one run
#: in the hundreds of milliseconds so a 200-mutation nightly campaign
#: finishes in minutes.
GEOMETRY: Dict[str, float] = {"horizon": 1.5, "drain": 1.0, "window": 0.5}

#: Cap on simulator runs one shrink may spend (a full pass over the
#: dimensions costs ~25; three passes almost always reach the fixpoint).
SHRINK_RUN_CAP = 120

#: Bucket edges for pathology observables: a feature like ``waits:b3``
#: means the value fell in ``[EDGES[2], EDGES[3])``.  Log-ish spacing so
#: "a bit more contention" and "10x more contention" are different
#: features but noise within a bucket is not.
_EDGES = (0.001, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0)


def _bucket(value: float) -> str:
    return f"b{bisect_right(_EDGES, float(value))}"


# -- spec dimensions ---------------------------------------------------------


@dataclass(frozen=True)
class Dim:
    """One mutable axis of the scenario space.

    ``choices`` is what mutation samples from; shrinking instead moves
    the axis back to the healthy base spec's value.  Values must be
    plain data (JSON-able) so operator logs and repro files stay
    readable.
    """

    name: str
    choices: tuple
    get: Callable[[RunSpec], Any]
    set: Callable[[RunSpec, Any], RunSpec]


def _section_dim(section: str, fld: str, choices: tuple) -> Dim:
    return Dim(
        name=f"{section}.{fld}",
        choices=choices,
        get=lambda s: getattr(getattr(s.config, section), fld),
        set=lambda s, v: edit_config(s, **{section: {fld: v}}),
    )


def _top_dim(fld: str, choices: tuple) -> Dim:
    return Dim(
        name=f"config.{fld}",
        choices=choices,
        get=lambda s: getattr(s.config, fld),
        set=lambda s, v: s.replace(config=dc_replace(s.config, **{fld: v})),
    )


def _option_dim(fld: str, choices: tuple) -> Dim:
    return Dim(
        name=f"options.{fld}",
        choices=choices,
        get=lambda s: getattr(s.options, fld),
        set=lambda s, v: s.replace(**{fld: v}),
    )


def _chaos_class_dim(name: str, presets: tuple) -> Dim:
    return Dim(
        name=f"chaos.{name}",
        choices=presets,
        get=lambda s: s.params["chaos"].get(name),
        set=lambda s, v: edit_chaos(s, **{name: v}),
    )


def _chaos_field_dim(fld: str, choices: tuple) -> Dim:
    return Dim(
        name=f"chaos.{fld}",
        choices=choices,
        get=lambda s: s.params["chaos"][fld],
        set=lambda s, v: edit_chaos(s, **{fld: v}),
    )


#: Fault-process presets (as dicts: they ride in ``params["chaos"]``).
#: mtbf values are tuned to the 1.5 s chaos window; long-mttr presets
#: leave the component broken for the rest of the run.
_FAST = {"mtbf": 0.4, "mttr": 0.3, "max_faults": 2}
_SLOW = {"mtbf": 1.0, "mttr": 0.5, "max_faults": 1}
_STUCK = {"mtbf": 0.6, "mttr": 30.0, "max_faults": 1}

DIMENSIONS: Tuple[Dim, ...] = (
    _top_dim("seed", tuple(range(1, 17))),
    _top_dim("n_systems", (2, 3, 4)),
    _top_dim("n_dasd", (8, 16, 48)),
    _section_dim("oltp", "zipf_theta", (0.0, 0.3, 0.6, 0.8, 1.0, 1.2, 1.4)),
    _section_dim("oltp", "reads_per_txn", (0, 2, 5, 8, 12)),
    _section_dim("oltp", "writes_per_txn", (0, 1, 3, 6, 10)),
    _section_dim("db", "n_pages", (150, 600, 2000, 10000, 75000)),
    _section_dim("db", "deadlock_interval", (0.05, 0.1, 0.5)),
    _section_dim("db", "log_force_io", (0.0012, 0.006, 0.012)),
    _section_dim("cf", "lock_table_entries", (64, 1024, 1 << 20)),
    _section_dim("cf", "cache_elements", (1024, 8192, 65536)),
    _section_dim("cf", "request_timeout", (None, 0.005, 0.02)),
    _section_dim("cf", "request_retries", (0, 1, 4)),
    # duplexing axes: every mutant with duplex on runs the duplexed-write
    # protocol and the duplex-consistency invariant; the SFM axes move
    # the switch-vs-rebuild timing the chaos classes below collide with
    _section_dim("cf", "duplex", ("none", "lock", "cache", "list", "all")),
    _section_dim("sfm", "detection_interval", (0.005, 0.02, 0.1)),
    _section_dim("sfm", "reestablish_delay", (0.05, 0.5, 2.0)),
    _section_dim("dasd", "service_mean", (0.0025, 0.01, 0.025)),
    _option_dim("offered_tps_per_system", (30.0, 60.0, 120.0, 240.0)),
    _option_dim("router_policy", ("local", "threshold", "wlm")),
    # execution axis: every corpus entry is re-checked for byte
    # determinism on admission, so mutating this puts both the collapsed
    # and the general CF sync paths under the nondet oracle
    _option_dim("profile", ("sweep", "verify")),
    _chaos_class_dim("systems", (None, _FAST, _SLOW)),
    _chaos_class_dim("cfs", (None, _SLOW, _STUCK)),
    _chaos_class_dim("links", (None, _FAST)),
    _chaos_class_dim("dasd", (None, _SLOW)),
    _chaos_class_dim("sick", (None, _SLOW, _STUCK)),
    _chaos_field_dim("sick_cpu_factor", (2.0, 4.0, 8.0, 16.0)),
)


# -- seeds, mutation, features ----------------------------------------------


def seed_specs(seed: int = 0) -> List[RunSpec]:
    """The initial corpus: healthy base, adversary catalog, one soak.

    ``seed`` offsets the sysplex seeds so different campaigns start from
    different (but internally deterministic) corners.
    """
    from .experiments.exp_chaos import chaos_spec

    s0 = 1 + seed
    specs = [base_spec(seed=s0, **GEOMETRY)]
    specs += adversary_specs(seed=s0, **GEOMETRY)
    specs.append(chaos_spec(seed=s0, **GEOMETRY))
    return specs


def load_corpus(path: Path, exclude: Optional[Set[str]] = None) -> List[RunSpec]:
    """Reload a previous campaign's corpus entries as extra seeds.

    Reads the ``corpus.json`` a prior :func:`fuzz` run wrote (each entry
    carries its full spec), skipping hashes in ``exclude`` and duplicate
    entries.  Entries from older schema versions without an embedded
    spec are skipped silently — resuming from them is impossible.
    """
    doc = json.loads(Path(path).read_text())
    seen = set(exclude or ())
    specs: List[RunSpec] = []
    for entry in doc.get("entries", []):
        if "spec" not in entry or entry.get("spec_hash") in seen:
            continue
        seen.add(entry["spec_hash"])
        specs.append(RunSpec.from_dict(entry["spec"]))
    return specs


def mutate(
    spec: RunSpec, rng: random.Random, n_ops: Optional[int] = None
) -> Tuple[RunSpec, List[str]]:
    """Apply 1-3 random dimension changes; returns ``(mutant, op log)``."""
    if n_ops is None:
        n_ops = rng.randint(1, 3)
    ops: List[str] = []
    for _ in range(n_ops):
        for _attempt in range(4):
            dim = rng.choice(DIMENSIONS)
            current = dim.get(spec)
            candidates = [c for c in dim.choices if c != current]
            if not candidates:
                continue
            value = rng.choice(candidates)
            try:
                spec = dim.set(spec, value)
            except (TypeError, ValueError):
                continue  # invalid combination: try another dimension
            ops.append(f"{dim.name}={value}")
            break
    return spec, ops


def features(payload: dict) -> Set[str]:
    """The coverage feature map over one chaos-runner payload."""
    f: Set[str] = set()
    inv = payload["invariants"]
    for name in inv["branches"]:
        f.add(f"branch:{name}")
    for v in inv["violations"]:
        f.add(f"violation:{v['name']}")
    for _t, label in payload["degraded"]:
        f.add("degraded:" + str(label).split(":", 1)[0])
    for _t, label, state in payload["outcomes"]:
        f.add("chaos:" + str(label).split(":", 1)[0] + ":" + state)
    s = payload["summary"]
    p = s["pathology"]
    completed = max(1, int(s["completed"]))
    f.add("waits:" + _bucket(p["lock_waits"] / completed))
    f.add("deadlocks:" + _bucket(p["deadlocks"]))
    f.add("xi:" + _bucket(p.get("xi_signals", 0) / completed))
    f.add(
        "false-contention:" + _bucket(100.0 * p.get("false_contention_rate", 0.0))
    )
    f.add("castout-backlog:" + _bucket(p.get("castout_backlog", 0)))
    f.add("cache-full:" + _bucket(p["cache_full"]))
    f.add("retained:" + _bucket(p["retained_locks"]))
    f.add(f"sick:{p['sick_systems']}")
    f.add(f"partitioned:{_bucket(p['partitioned'])}")
    f.add("lost:" + _bucket(s["lost"]))
    f.add("rebuilds:" + _bucket(s["rebuilds_started"]))
    f.add("duplex-breaks:" + _bucket(p.get("duplex_breaks", 0)))
    f.add("switches:" + _bucket(p.get("duplex_switches", 0)))
    f.add("reduplexed:" + _bucket(p.get("duplex_reestablished", 0)))
    return f


# -- oracles -----------------------------------------------------------------


def outcome_key(
    spec: RunSpec, replay_check: bool = False
) -> Tuple[Optional[str], Optional[dict], str]:
    """Run ``spec`` and judge it: ``(failure key | None, payload, detail)``.

    ``replay_check=True`` re-runs the spec and compares canonical JSON —
    the byte-determinism oracle.  Payloads go through
    :func:`repro.executor.canonical_payload`, so "deterministic" is
    judged on exactly the bytes a cache file or a work-queue worker
    would carry.  Keys are stable strings ("crash:…", "invariant:…",
    "nondet:payload") so equal failures dedup and a shrunk spec can be
    checked for *the same* failure.
    """
    try:
        payload = canonical_payload(spec)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return f"crash:{type(exc).__name__}", None, str(exc)
    names = sorted({v["name"] for v in payload["invariants"]["violations"]})
    if names:
        first = payload["invariants"]["violations"][0]
        return "invariant:" + ",".join(names), payload, first["detail"]
    if replay_check:
        second = canonical_payload(spec)
        if canonical_json(second) != canonical_json(payload):
            return (
                "nondet:payload",
                payload,
                "re-running the spec produced a different payload",
            )
    return None, payload, ""


def shrink(spec: RunSpec, key: str, seed: int = 0) -> Tuple[RunSpec, int]:
    """Greedily walk ``spec`` back toward the healthy base while ``key``
    still reproduces; returns ``(minimal spec, runs spent)``.

    Deterministic by construction: the candidate order is the fixed
    ``DIMENSIONS`` order and acceptance depends only on run outcomes, so
    the same failing spec always shrinks to the same minimal spec.
    """
    base = base_spec(seed=1 + seed, **GEOMETRY)
    replay_check = key.startswith("nondet")
    runs = 0
    current = spec
    improved = True
    while improved and runs < SHRINK_RUN_CAP:
        improved = False
        for dim in DIMENSIONS:
            if runs >= SHRINK_RUN_CAP:
                break
            target = dim.get(base)
            if dim.get(current) == target:
                continue
            try:
                candidate = dim.set(current, target)
            except (TypeError, ValueError):
                continue
            got, _payload, _detail = outcome_key(candidate, replay_check)
            runs += 1
            if got == key:
                current = candidate
                improved = True
    return current, runs


# -- the campaign ------------------------------------------------------------


@dataclass
class FuzzResult:
    """Everything one campaign produced (JSON-ready via :meth:`to_dict`)."""

    corpus: List[dict]
    coverage: List[str]
    failures: List[dict]
    stats: Dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "corpus": self.corpus,
            "coverage": self.coverage,
            "failures": self.failures,
            "stats": dict(self.stats),
        }


def fuzz(
    budget: int = 50,
    seed: int = 0,
    out: Optional[Path] = None,
    quiet: bool = False,
    seeds: Optional[List[RunSpec]] = None,
    corpus: Optional[Path] = None,
    emit_fixtures: Optional[Path] = None,
) -> FuzzResult:
    """Run one coverage-guided campaign of ``budget`` mutations.

    Pure function of ``(budget, seed)``: the corpus entries, coverage
    feature list, and shrunk failure specs are identical across re-runs.
    ``out`` (a directory) gets ``corpus.json``, ``coverage.json`` and
    one ``failures/<key>.json`` repro file per distinct failure key.
    ``seeds`` overrides the initial corpus (tests use a short list);
    ``corpus`` additionally reseeds from a previous campaign's
    ``corpus.json`` (nightly runs resume where the last one stopped),
    still a pure function of ``(budget, seed, corpus bytes)``.
    ``emit_fixtures`` writes every admitted corpus spec as a standalone
    repro JSON — known-clean scenarios a regression test can pin.
    """
    rng = random.Random(seed)
    say = (lambda *a: None) if quiet else (lambda *a: print(*a, flush=True))

    corpus_specs: List[RunSpec] = []
    corpus_rows: List[dict] = []
    coverage: Set[str] = set()
    failures: Dict[str, dict] = {}
    stats = {
        "budget": budget,
        "runs": 0,
        "corpus": 0,
        "rejected": 0,
        "shrink_runs": 0,
        "failures": 0,
        "duplicate_failures": 0,
    }

    def record_failure(
        spec: RunSpec, key: str, detail: str, origin: str, ops: List[str]
    ) -> None:
        if key in failures:
            stats["duplicate_failures"] += 1
            return
        say(f"  FAILURE {key}: {detail}")
        minimal, runs = shrink(spec, key, seed=seed)
        stats["shrink_runs"] += runs
        stats["failures"] += 1
        failures[key] = {
            "key": key,
            "detail": detail,
            "origin": origin,
            "ops": ops,
            "shrink_runs": runs,
            "spec_hash": minimal.content_hash(),
            "spec": minimal.to_dict(),
        }
        say(f"  shrunk in {runs} runs -> {minimal.content_hash()[:12]}")

    def consider(spec: RunSpec, origin: str, ops: List[str]) -> None:
        key, payload, detail = outcome_key(spec)
        stats["runs"] += 1
        if payload is not None:
            feats = features(payload)
            new = feats - coverage
        else:
            feats, new = set(), set()
        if key is not None:
            coverage.update(feats)
            record_failure(spec, key, detail, origin, ops)
            return
        if not new:
            stats["rejected"] += 1
            return
        # novelty must also be *reproducible* before seeding more work
        # off it: the byte-determinism oracle runs on corpus admission
        key2, _p2, detail2 = outcome_key(spec, replay_check=True)
        stats["runs"] += 1
        if key2 is not None:
            coverage.update(feats)
            record_failure(spec, key2, detail2, origin, ops)
            return
        coverage.update(feats)
        corpus_specs.append(spec)
        corpus_rows.append(
            {
                "label": spec.label,
                "origin": origin,
                "ops": ops,
                "new_features": sorted(new),
                "spec_hash": spec.content_hash(),
                # the full spec rides along so a later campaign (or a
                # fixture emitter) can resume from this corpus file
                "spec": spec.to_dict(),
            }
        )
        stats["corpus"] = len(corpus_specs)
        say(f"  corpus+= {spec.label} (+{len(new)} features)")

    say(f"fuzz: seeding corpus (seed={seed})")
    initial = seeds if seeds is not None else seed_specs(seed)
    if corpus is not None:
        resumed = load_corpus(corpus, exclude={s.content_hash() for s in initial})
        say(f"fuzz: resuming {len(resumed)} corpus entr(ies) from {corpus}")
        initial = initial + resumed
    for spec in initial:
        say(f"[seed] {spec.label}")
        consider(spec, origin="seed", ops=[])

    for i in range(budget):
        if not corpus_specs:
            say("corpus is empty (every seed failed): stopping early")
            break
        parent_idx = rng.randrange(len(corpus_specs))
        parent = corpus_specs[parent_idx]
        mutant, ops = mutate(parent, rng)
        mutant = mutant.replace(label=f"fuzz-{seed}-{i:04d}")
        say(
            f"[{i + 1}/{budget}] {mutant.label} <- "
            f"{parent.label}: {', '.join(ops) or 'no-op'}"
        )
        consider(mutant, origin=parent.label, ops=ops)

    result = FuzzResult(
        corpus=corpus_rows,
        coverage=sorted(coverage),
        failures=[failures[k] for k in sorted(failures)],
        stats=stats,
    )
    if out is not None:
        _write_outputs(Path(out), result)
    if emit_fixtures is not None:
        _write_fixtures(Path(emit_fixtures), corpus_specs)
        say(f"fuzz: {len(corpus_specs)} fixture(s) in {emit_fixtures}")
    say(
        f"\nfuzz done: {stats['runs']} runs, corpus {stats['corpus']}, "
        f"{len(result.coverage)} features, {stats['failures']} failure(s)"
    )
    return result


def _failure_filename(entry: dict) -> str:
    slug = "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in entry["key"])
    return f"{slug[:60]}-{entry['spec_hash'][:12]}.json"


def _write_outputs(out: Path, result: FuzzResult) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "corpus.json").write_text(
        json.dumps(
            {"entries": result.corpus, "stats": result.stats},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    (out / "coverage.json").write_text(
        json.dumps(
            {"features": result.coverage, "stats": result.stats},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    fail_dir = out / "failures"
    fail_dir.mkdir(exist_ok=True)
    from .runspec import SCHEMA_VERSION

    for entry in result.failures:
        doc = {
            "schema": SCHEMA_VERSION,
            "spec": entry["spec"],
            "failure": {
                k: entry[k] for k in ("key", "detail", "origin", "ops", "shrink_runs")
            },
        }
        path = fail_dir / _failure_filename(entry)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_fixtures(out: Path, specs: List[RunSpec]) -> None:
    """One standalone repro JSON per admitted corpus spec.

    Every file is loadable with :meth:`RunSpec.from_json` and carries no
    failure record — the regression suite asserts these stay *clean*.
    """
    out.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        slug = "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in spec.label)
        path = out / f"{slug[:60]}-{spec.content_hash()[:12]}.json"
        path.write_text(spec.to_json() + "\n")


# -- replay ------------------------------------------------------------------


def replay(path: Path, quiet: bool = False) -> int:
    """Re-run a saved repro file; exit code 0 iff it reproduces.

    For a failure file written by :func:`fuzz`, "reproduces" means the
    recorded failure key fires again; for a bare spec file it means the
    run is clean.
    """
    say = (lambda *a: None) if quiet else (lambda *a: print(*a, flush=True))
    text = Path(path).read_text()
    doc = json.loads(text)
    expected = (doc.get("failure") or {}).get("key")
    spec = RunSpec.from_json(text)
    key, _payload, detail = outcome_key(spec, replay_check=True)
    if expected is not None:
        if key == expected:
            say(f"reproduced {key}: {detail}")
            return 0
        say(f"did NOT reproduce: expected {expected}, got {key or 'clean'}")
        return 1
    if key is None:
        say("clean run (no recorded failure to reproduce)")
        return 0
    say(f"spec fails: {key}: {detail}")
    return 1


# -- CLI ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Coverage-guided fuzzer over chaos scenario specs.",
    )
    parser.add_argument(
        "--budget", type=int, default=50, help="mutations to evaluate (default: 50)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    parser.add_argument(
        "--out",
        default="fuzz-out",
        metavar="DIR",
        help="output directory (default: fuzz-out)",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="re-run a saved repro file instead of fuzzing",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="PATH",
        help="resume: reseed from a previous campaign's corpus.json",
    )
    parser.add_argument(
        "--emit-fixtures",
        default=None,
        metavar="DIR",
        help="write each admitted corpus spec as a repro JSON under DIR",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress output"
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        return replay(Path(args.replay), quiet=args.quiet)

    result = fuzz(
        budget=args.budget,
        seed=args.seed,
        out=Path(args.out),
        quiet=args.quiet,
        corpus=Path(args.corpus) if args.corpus else None,
        emit_fixtures=Path(args.emit_fixtures) if args.emit_fixtures else None,
    )
    if not result.ok:
        print(
            f"FAIL: {len(result.failures)} distinct failure(s); "
            f"repro specs in {args.out}/failures/",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

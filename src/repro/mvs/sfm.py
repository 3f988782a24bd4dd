"""SFM: Sysplex Failure Management for CF-structure recovery.

The policy layer that decides *how* a sysplex recovers from a coupling
facility failure (paper §2.5 / §3.3).  Driven entirely by events — it
owns no periodic process and draws no randomness, so building it costs a
``duplex="none"`` run nothing.

Two recovery paths exist for a structure whose CF dies:

* **Duplex switch** — the structure was system-managed duplexed and its
  secondary instance survives: after ``SfmConfig.detection_interval``
  the secondary is promoted in place (connections rebind, no state
  replay) and a background process re-establishes a fresh secondary
  after ``reestablish_delay``.
* **Structure rebuild** — the structure was simplex (or both instances
  are gone): the classic path, re-populating a fresh instance from the
  connectors' local state.

Every recovery is recorded as an *incident* — detect → freeze →
switch/rebuild → resume timestamps plus the recovery time scored
against the structure class's ``recovery_slo_ms`` — and surfaced in
chaos/experiment payloads, which is how EXP-DUPLEX measures the MTTR
side of the duplexing trade-off.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..cf.facility import CouplingFacility
from .xes import DuplexPair

__all__ = ["SfmPolicyEngine"]


class SfmPolicyEngine:
    """Declarative per-run recovery policy + incident recorder."""

    def __init__(self, plex):
        self.plex = plex
        self.policy = plex.config.sfm
        #: completed recovery incidents (dict rows, payload-ready)
        self.incidents: List[dict] = []
        #: cf name -> open legacy-rebuild rows awaiting completion
        self._open: Dict[str, List[dict]] = {}
        for pair in plex.xes.duplex_pairs.values():
            pair.on_break = self._pair_broke

    # -- incident bookkeeping ------------------------------------------------
    def _record(self, structure: str, model: str, kind: str,
                failed_at: float, detected_at: float, resumed_at: float,
                cf_name: str) -> None:
        recovery_ms = (resumed_at - detected_at) * 1000.0
        slo_ms = self.policy.slo_ms(model)
        self.incidents.append({
            "structure": structure,
            "model": model,
            "kind": kind,
            "cf": cf_name,
            "failed_at": failed_at,
            "detected_at": detected_at,
            "resumed_at": resumed_at,
            "recovery_ms": recovery_ms,
            "slo_ms": slo_ms,
            "slo_met": recovery_ms <= slo_ms,
        })

    def report(self) -> dict:
        """Policy + incident timelines for experiment payloads."""
        p = self.policy
        return {
            "policy": {
                "detection_interval": p.detection_interval,
                "reestablish_delay": p.reestablish_delay,
                "lock_slo_ms": p.lock_slo_ms,
                "cache_slo_ms": p.cache_slo_ms,
                "list_slo_ms": p.list_slo_ms,
            },
            "incidents": list(self.incidents),
        }

    # -- legacy simplex path (passive recording, zero events) ----------------
    def rebuild_started(self, cf: CouplingFacility,
                        structures: List[Tuple[str, str]]) -> None:
        """The classic whole-plex rebuild kicked off (non-duplexed runs).

        Detection is immediate on this path (byte-identical to the
        historical behaviour); SFM only takes notes.
        """
        now = self.plex.sim.now
        self._open.setdefault(cf.name, []).extend(
            {"structure": name, "model": model, "failed_at": now}
            for name, model in structures
        )

    def rebuild_finished(self, cf: CouplingFacility) -> None:
        now = self.plex.sim.now
        for row in self._open.pop(cf.name, []):
            self._record(row["structure"], row["model"], "rebuild",
                         row["failed_at"], row["failed_at"], now, cf.name)

    def rebuild_abandoned(self, cf: CouplingFacility) -> None:
        """The rebuild died (no live CF, contributors gone): the degraded
        event carries the outcome; no incident is recorded."""
        self._open.pop(cf.name, None)

    # -- duplex-aware recovery (active path) ----------------------------------
    def cf_failed(self, cf: CouplingFacility) -> None:
        """Drive recovery for every structure the failed CF hosted."""
        plex = self.plex
        pairs = plex.xes.duplex_pairs
        failed_at = plex.sim.now

        # secondaries on the failed CF: drop to simplex now (mutating
        # commands stop running the second leg immediately); the break
        # hook schedules the background re-duplex
        for pair in list(pairs.values()):
            if pair.secondary is not None and pair.secondary.facility is cf:
                pair.drop_secondary(f"cf-failed:{cf.name}")

        switches: List[DuplexPair] = []
        rebuilds: List[Tuple[str, str]] = []
        for name, pair in list(pairs.items()):
            if pair.primary is None or pair.primary.facility is not cf:
                continue
            if pair.secondary is not None:
                switches.append(pair)
            else:
                # both instances gone: the structure falls back to the
                # rebuild path and stops being duplexed for the rest of
                # the run (connections re-wire as plain simplex ones)
                rebuilds.append((name, pair.model))
                del pairs[name]
        for st in cf.structures.values():
            if st.name not in pairs and not any(n == st.name
                                                for n, _ in rebuilds):
                if any(p.primary is st or p.secondary is st
                       for p in pairs.values()):
                    continue  # pragma: no cover - handled above
                rebuilds.append((st.name, st.model))

        if not switches and not rebuilds:
            return  # the CF hosted nothing that needs recovery
        plex.sim.process(
            self._managed_recovery(cf, failed_at, switches, rebuilds),
            name=f"sfm-recovery-{cf.name}",
        )

    def _managed_recovery(self, cf: CouplingFacility, failed_at: float,
                          switches: List[DuplexPair],
                          rebuilds: List[Tuple[str, str]]):
        plex = self.plex
        yield plex.sim.timeout(self.policy.detection_interval)
        detected_at = plex.sim.now
        # promote every surviving secondary before any signalling: the
        # rebind is in-place, so all switched structures resume service
        # at detection time, not behind each other's acknowledgments
        for pair in switches:
            pair.promote()
            plex.metrics.counter("cf.switches").add()
            if pair.model == "cache":
                plex._restart_castout()
        for pair in switches:
            plex.sim.process(
                self._switch_handshake(pair, cf, failed_at, detected_at),
                name=f"sfm-switch-{pair.name}",
            )
        for name, model in rebuilds:
            if not plex.xes.live_facilities():
                plex._degraded(f"no-live-cf-after:{cf.name}")
                continue
            plex.metrics.counter("cf.rebuilds_started").add()
            try:
                yield from plex._rebuild_structures((name,))
            except Exception as exc:
                plex._degraded(
                    f"rebuild-abandoned-after:{cf.name}:{type(exc).__name__}"
                )
            else:
                plex.metrics.counter("cf.rebuilds").add()
                self._record(name, model, "rebuild", failed_at,
                             detected_at, plex.sim.now, cf.name)

    def _switch_handshake(self, pair: DuplexPair, cf: CouplingFacility,
                          failed_at: float, detected_at: float):
        """One structure's switch completion, independent of its siblings:
        each surviving connection acknowledges the promoted primary with
        one cheap command, then the incident is recorded and the
        background re-duplex scheduled."""
        plex = self.plex
        for conn in list(pair.connections):
            if not conn.node.alive or not conn.connector.active:
                continue
            try:
                yield from conn.sync(lambda s, c: None)
            except Exception as exc:
                plex._degraded(
                    f"switch-handshake:{pair.name}:{type(exc).__name__}"
                )
        self._record(pair.name, pair.model, "switch", failed_at,
                     detected_at, plex.sim.now, cf.name)
        self.schedule_reduplex(pair)

    # -- re-duplexing ----------------------------------------------------------
    def _pair_broke(self, pair: DuplexPair, reason: str) -> None:
        plex = self.plex
        plex._degraded(f"duplex-simplex:{pair.name}:{reason}")
        plex.metrics.counter("duplex.breaks").add()
        self.schedule_reduplex(pair)

    def schedule_reduplex(self, pair: DuplexPair) -> None:
        """Start the background re-establish loop for a simplex pair."""
        if pair.name not in self.plex.xes.duplex_pairs or pair.reduplexing:
            return
        pair.reduplexing = True
        self.plex.sim.process(self._reduplex_loop(pair),
                              name=f"reduplex-{pair.name}")

    def _reduplex_loop(self, pair: DuplexPair):
        plex = self.plex
        delay = max(self.policy.reestablish_delay, 1e-3)
        try:
            while (pair.secondary is None
                   and pair.name in plex.xes.duplex_pairs
                   and pair.primary is not None and not pair.primary.lost):
                yield plex.sim.timeout(delay)
                if pair.secondary is not None:
                    break
                started = plex.sim.now
                try:
                    yield from plex.xes.reestablish_secondary(pair)
                except Exception:
                    continue  # no second CF / copy failed: try again later
                plex.metrics.counter("duplex.reestablished").add()
                self._record(pair.name, pair.model, "reestablish",
                             started, started, plex.sim.now,
                             pair.secondary.facility.name)
        finally:
            pair.reduplexing = False

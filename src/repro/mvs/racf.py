"""RACF in the sysplex: CF-cached security profiles.

Paper §5.1: "Several MVS base system components including JES2, RACF,
and XCF are exploiting the Coupling Facility."  RACF's exploitation is a
shared profile cache: each system keeps security profiles in local
storage, registered in a CF cache structure, so

* the hot path — an authorization check — is a local lookup plus a bit
  test (microseconds, no I/O, no CF trip);
* an administrator's profile change on any system **cross-invalidates**
  every cached copy sysplex-wide, so a revoked permission takes effect
  on the next check everywhere — without the per-system cache refresh
  commands pre-sysplex RACF needed.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from ..simkernel import Simulator
from .xes import XesConnection

__all__ = ["SecurityManager", "SecurityProfile"]

#: CPU for an authorization check against a locally cached profile
CHECK_CPU = 4e-6
#: CPU to evaluate a freshly fetched profile (parse access list)
LOAD_CPU = 40e-6


class SecurityProfile:
    """A resource profile: which users hold which access level."""

    __slots__ = ("name", "access", "version")

    def __init__(self, name: str):
        self.name = name
        self.access: Dict[str, str] = {}  # user -> READ|UPDATE|ALTER
        self.version = 0

    def permits(self, user: str, level: str) -> bool:
        order = {"NONE": 0, "READ": 1, "UPDATE": 2, "ALTER": 3}
        have = order.get(self.access.get(user, "NONE"), 0)
        return have >= order.get(level, 3)


class SecurityManager:
    """One system's RACF instance with a CF-coherent profile cache."""

    def __init__(self, sim: Simulator, node, database: Dict[str, SecurityProfile],
                 xes: XesConnection, racf_dasd):
        """``database`` is the shared RACF database content (profiles on
        DASD); ``racf_dasd`` the device it lives on; ``xes`` a connection
        to the profile cache structure."""
        self.sim = sim
        self.node = node
        self.database = database
        self.xes = xes
        self.dasd = racf_dasd
        self._local: Dict[str, Tuple[SecurityProfile, int]] = {}  # name -> (copy, bit)
        self._next_bit = 0
        self.checks = 0
        self.local_hits = 0
        self.dasd_fetches = 0

    # -- the hot path ----------------------------------------------------------
    def check_access(self, user: str, profile_name: str,
                     level: str) -> Generator:
        """Process step: authorization check; returns True/False."""
        self.checks += 1
        cache = self.xes.structure
        vector = cache.vector_of(self.xes.connector)
        cached = self._local.get(profile_name)
        if cached is not None and vector.test(cached[1]):
            yield from self.node.cpu.consume(CHECK_CPU)
            self.local_hits += 1
            return cached[0].permits(user, level)
        # miss or invalidated: register + (re)fetch from the RACF database
        bit = cached[1] if cached is not None else self._alloc_bit()
        yield from self.xes.sync(
            lambda: cache.register_and_read(
                self.xes.connector, ("racf", profile_name), bit),
            mirror=lambda s, c: s.register_and_read(
                c, ("racf", profile_name), bit),
        )
        yield from self.dasd.io()
        self.dasd_fetches += 1
        master = self.database.get(profile_name)
        if master is None:
            yield from self.node.cpu.consume(CHECK_CPU)
            return False  # no profile: deny
        copy = SecurityProfile(profile_name)
        copy.access = dict(master.access)
        copy.version = master.version
        self._local[profile_name] = (copy, bit)
        yield from self.node.cpu.consume(LOAD_CPU)
        return copy.permits(user, level)

    def _alloc_bit(self) -> int:
        bit = self._next_bit
        self._next_bit += 1
        return bit

    # -- administration -------------------------------------------------------------
    def alter_profile(self, profile_name: str, user: str,
                      level: str) -> Generator:
        """Process step: change an access list entry (PERMIT/REVOKE).

        Writes the RACF database and cross-invalidates every system's
        cached copy through the CF — the change is live sysplex-wide on
        the next check.
        """
        profile = self.database.setdefault(
            profile_name, SecurityProfile(profile_name))
        if level == "NONE":
            profile.access.pop(user, None)
        else:
            profile.access[user] = level
        profile.version += 1
        yield from self.dasd.io()  # harden the database change
        cache = self.xes.structure
        yield from self.xes.sync(
            lambda: cache.write_and_invalidate(
                self.xes.connector, ("racf", profile_name), store=False),
            mirror=lambda s, c: s.write_and_invalidate(
                c, ("racf", profile_name), store=False),
            signal_wait=True,
        )
        # our own copy is refreshed in place
        cached = self._local.get(profile_name)
        if cached is not None:
            cached[0].access = dict(profile.access)
            cached[0].version = profile.version

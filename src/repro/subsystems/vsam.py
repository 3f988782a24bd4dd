"""VSAM record-level sharing (RLS): the paper's in-development exploiter.

§5.2: "DFSMS support for multi-system data-sharing of VSAM files is
currently under development and will similarly exploit the Coupling
Facility."  That support shipped as VSAM RLS (DFSMS 1.3): an SMSVSAM
instance per system sharing keyed datasets with **record-level locks**
through the CF lock structure and **control-interval (CI) buffers** kept
coherent through a CF cache structure.

This module implements a KSDS-like keyed dataset and the RLS access
layer on top of the same :class:`LockManager` / :class:`BufferManager`
machinery the database manager uses — which is exactly the point the
paper makes: the CF's lock/cache models are general substrates that any
data manager can adopt.

The interesting systems property is **lock granularity**: RLS locks
*records*, so two systems updating different records in the same CI
proceed concurrently (the CI page itself is kept coherent by
cross-invalidation, serialized only for the microseconds of the CF write
command), where a page-locking manager would serialize them for the
whole transaction.  ABL-GRAN measures that difference.
"""

from __future__ import annotations

import bisect
from typing import Dict, Generator, List, Optional, Tuple

from ..cf.lock import LockMode
from ..simkernel import Simulator
from .buffermgr import BufferManager
from .lockmgr import LockManager
from .logmgr import LogManager

__all__ = ["VsamDataset", "VsamCatalog", "VsamRls"]

#: CPU per RLS request (SMSVSAM path length)
RLS_REQUEST_CPU = 45e-6
#: extra CPU for a CI split (moving records, updating the index)
CI_SPLIT_CPU = 300e-6


class VsamDataset:
    """A keyed dataset: records grouped into control intervals.

    The record→CI map and per-CI population are shared metadata (the
    VSAM index, itself CI-cached in reality; modeled as shared state with
    costs charged at the access layer).
    """

    def __init__(self, name: str, base_page: int, max_cis: int,
                 records_per_ci: int = 20):
        if records_per_ci < 2:
            raise ValueError("a CI must hold at least 2 records")
        self.name = name
        self.base_page = base_page
        self.max_cis = max_cis
        self.records_per_ci = records_per_ci
        #: key -> CI index within this dataset
        self._ci_of_key: Dict[object, int] = {}
        #: CI index -> set of keys living there
        self._ci_members: Dict[int, set] = {}
        #: all keys in collating sequence (the KSDS index)
        self._sorted_keys: List = []
        self._next_ci = 0
        #: records carry version counters (value payloads are not modeled)
        self.versions: Dict[object, int] = {}
        self.ci_splits = 0

    # -- placement -----------------------------------------------------------
    def page_of(self, ci: int) -> int:
        return self.base_page + ci

    def ci_for(self, key: object) -> Optional[int]:
        return self._ci_of_key.get(key)

    def _alloc_ci(self) -> int:
        if self._next_ci >= self.max_cis:
            raise RuntimeError(f"dataset {self.name} is full")
        ci = self._next_ci
        self._next_ci += 1
        self._ci_members[ci] = set()
        return ci

    def place_new_record(self, key: object) -> Tuple[int, bool]:
        """Find the CI for a new key (KSDS: its predecessor's CI);
        returns (ci, split_occurred)."""
        if key in self._ci_of_key:
            raise KeyError(f"duplicate key {key!r}")
        i = bisect.bisect_left(self._sorted_keys, key)
        if self._sorted_keys:
            anchor = self._sorted_keys[max(0, i - 1)]
            target = self._ci_of_key[anchor]
        else:
            target = self._alloc_ci()
        split = False
        if len(self._ci_members[target]) >= self.records_per_ci:
            # CI split: the upper half of the records (by key) move to a
            # freshly allocated CI, exactly like a VSAM CI split
            new_ci = self._alloc_ci()
            members = sorted(self._ci_members[target])
            movers = members[len(members) // 2:]
            for k in movers:
                self._ci_members[target].discard(k)
                self._ci_members[new_ci].add(k)
                self._ci_of_key[k] = new_ci
            if key >= movers[0]:
                target = new_ci
            split = True
            self.ci_splits += 1
        self._ci_members[target].add(key)
        self._ci_of_key[key] = target
        bisect.insort(self._sorted_keys, key)
        self.versions[key] = 0
        return target, split


class VsamCatalog:
    """Sysplex-wide dataset registry; allocates page ranges on the farm."""

    def __init__(self, first_page: int):
        self._next_page = first_page
        self.datasets: Dict[str, VsamDataset] = {}

    def define(self, name: str, max_cis: int,
               records_per_ci: int = 20) -> VsamDataset:
        if name in self.datasets:
            raise ValueError(f"dataset {name!r} already defined")
        ds = VsamDataset(name, self._next_page, max_cis, records_per_ci)
        self._next_page += max_cis
        self.datasets[name] = ds
        return ds

    def lookup(self, name: str) -> VsamDataset:
        return self.datasets[name]


class VsamRls:
    """One system's RLS instance (the SMSVSAM address space).

    ``lock_granularity`` selects record-level locks (RLS proper) or
    CI/page-level locks (the pre-RLS behaviour) — the ABL-GRAN knob.
    """

    def __init__(self, sim: Simulator, node, catalog: VsamCatalog,
                 lockmgr: LockManager, buffers: BufferManager,
                 log: LogManager, lock_granularity: str = "record"):
        if lock_granularity not in ("record", "ci"):
            raise ValueError("granularity is 'record' or 'ci'")
        self.sim = sim
        self.node = node
        self.catalog = catalog
        self.locks = lockmgr
        self.buffers = buffers
        self.log = log
        self.lock_granularity = lock_granularity
        self.requests = 0
        self.commits = 0

    # -- internals -----------------------------------------------------------
    def _owner(self, txn_id: object) -> tuple:
        return (self.node.name, "vsam", txn_id)

    def _lock_name(self, ds: VsamDataset, key: object, ci: int):
        if self.lock_granularity == "record":
            return ("V", ds.name, key)
        return ("V", ds.name, "ci", ci)

    def _touch(self, ds: VsamDataset, key: object, ci: int, mode: str,
               owner) -> Generator:
        yield from self.node.cpu.consume(RLS_REQUEST_CPU)
        yield from self.locks.lock(owner, self._lock_name(ds, key, ci), mode)
        yield from self.buffers.get_page(ds.page_of(ci))
        self.requests += 1

    # -- record API (process steps) ----------------------------------------------
    def get(self, txn_id: object, ds_name: str, key: object) -> Generator:
        """Read a record; returns its version or None if absent."""
        ds = self.catalog.lookup(ds_name)
        ci = ds.ci_for(key)
        if ci is None:
            yield from self.node.cpu.consume(RLS_REQUEST_CPU)
            return None
        yield from self._touch(ds, key, ci, LockMode.SHR, self._owner(txn_id))
        return ds.versions.get(key)

    def put(self, txn_id: object, ds_name: str, key: object) -> Generator:
        """Insert or update a record; returns ('insert'|'update', ci)."""
        ds = self.catalog.lookup(ds_name)
        owner = self._owner(txn_id)
        ci = ds.ci_for(key)
        if ci is not None:
            yield from self._touch(ds, key, ci, LockMode.EXCL, owner)
            ds.versions[key] = ds.versions.get(key, 0) + 1
            self.buffers.mark_dirty(ds.page_of(ci))
            self.log.log_update(owner, ds.page_of(ci))
            return ("update", ci)
        # insert: may split a CI (extra work, extra page touched)
        ci, split = ds.place_new_record(key)
        yield from self._touch(ds, key, ci, LockMode.EXCL, owner)
        if split:
            yield from self.node.cpu.consume(CI_SPLIT_CPU)
            # the split sibling is rewritten too
            sibling = max(0, ci - 1)
            yield from self.buffers.get_page(ds.page_of(sibling))
            self.buffers.mark_dirty(ds.page_of(sibling))
            self.log.log_update(owner, ds.page_of(sibling))
        ds.versions[key] = 1
        self.buffers.mark_dirty(ds.page_of(ci))
        self.log.log_update(owner, ds.page_of(ci))
        return ("insert", ci)

    # -- transaction boundaries --------------------------------------------------
    def commit(self, txn_id: object) -> Generator:
        owner = self._owner(txn_id)
        touched = sorted(set(self.log.in_flight.get(owner, [])))
        yield from self.log.force()
        yield from self.buffers.commit_writes(touched)
        self.log.log_end(owner)
        yield from self.locks.unlock_all(owner)
        self.commits += 1

    def backout(self, txn_id: object) -> Generator:
        owner = self._owner(txn_id)
        self.log.log_end(owner)
        yield from self.locks.unlock_all(owner)

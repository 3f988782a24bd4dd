"""JES-style batch: a multi-access spool on the CF list structure.

Paper §5.1: "Several MVS base system components including JES2, RACF, and
XCF are exploiting the Coupling Facility."  JES2's exploitation is the
**checkpoint structure**: the shared job queue every member's initiators
select work from.  Modeled here:

* a shared job queue in a CF list structure — one header per job class,
  entries queued in priority (keyed) order;
* an *executing* header per system: taking a job is an **atomic move**
  from the class queue to the executor's header (the §3.3.3 primitive),
  so a job can never be started twice and never lost;
* **initiators** on every system drain the classes they serve;
* failure recovery: when a system dies, the jobs parked on its executing
  header are moved back to their class queues and run elsewhere —
  exactly once per job overall (completion is the delete of the parked
  entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator

import numpy as np

from ..cf.list import ListEntry
from ..mvs.xes import XesConnection
from ..simkernel import Simulator, Tally

__all__ = ["BatchJob", "JesSpool", "JesMember"]


@dataclass
class BatchJob:
    """One batch job: CPU and I/O demand, a class, and a priority."""

    job_id: int
    job_class: str = "A"
    priority: int = 8  # 0 = most urgent (collates first)
    cpu_seconds: float = 0.05
    io_count: int = 4
    submitted_at: float = 0.0
    runs: int = 0  # how many times execution started (restarts count)


class JesSpool:
    """The shared job queue: class headers + per-system executing headers.

    Header layout inside the list structure: classes first, then one
    executing header per member slot.
    """

    CLASSES = ("A", "B")

    def __init__(self, n_members: int):
        self.n_members = n_members
        self._class_header = {c: i for i, c in enumerate(self.CLASSES)}
        self._exec_base = len(self.CLASSES)
        self.submitted = 0
        self.completed = 0
        self.requeued = 0
        self.turnaround = Tally("jes.turnaround")

    @property
    def n_headers(self) -> int:
        return self._exec_base + self.n_members

    def class_header(self, job_class: str) -> int:
        return self._class_header[job_class]

    def exec_header(self, member_index: int) -> int:
        return self._exec_base + member_index


class JesMember:
    """One system's JES instance: submission + initiators."""

    def __init__(self, sim: Simulator, node, farm, spool: JesSpool,
                 xes: XesConnection, member_index: int,
                 initiators: Dict[str, int],
                 rng: np.random.Generator):
        self.sim = sim
        self.node = node
        self.farm = farm
        self.spool = spool
        self.xes = xes
        self.member_index = member_index
        self.rng = rng
        self.jobs_run = 0
        for job_class, count in initiators.items():
            for i in range(count):
                sim.process(self._initiator(job_class),
                            name=f"init-{node.name}-{job_class}{i}")

    # -- submission ----------------------------------------------------------
    def submit(self, job: BatchJob) -> Generator:
        """Process step: place a job on its class queue (one CF command)."""
        job.submitted_at = self.sim.now
        header = self.spool.class_header(job.job_class)
        entry = ListEntry(key=(job.priority, job.job_id), data=job)
        yield from self.xes.sync(
            lambda s, c: s.push(c, header, entry, where="keyed"),
            write=True, out_bytes=256,
        )
        self.spool.submitted += 1

    # -- initiators -------------------------------------------------------------
    def _initiator(self, job_class: str) -> Generator:
        header = self.spool.class_header(job_class)
        parked = self.spool.exec_header(self.member_index)
        try:
            while self.node.alive:
                # atomically take the highest-priority job: read the head,
                # move it to our executing header in one CF command
                def take_on(s, c):
                    entries = s.read(header)
                    if not entries:
                        return None
                    entry = entries[0]
                    s.move(c, header, parked, entry.entry_id)
                    return entry

                entry = yield from self.xes.sync(take_on, write=True,
                                                 in_bytes=256)
                if entry is None:
                    yield self.sim.timeout(0.01)  # idle poll
                    continue
                job: BatchJob = entry.data
                job.runs += 1
                yield from self._execute(job)
                # completion = deleting the parked entry
                yield from self.xes.sync(
                    lambda s, c, e=entry: s.delete(c, parked, e.entry_id),
                    write=True,
                )
                self.spool.completed += 1
                self.spool.turnaround.record(self.sim.now - job.submitted_at)
                self.jobs_run += 1
        except Exception:
            return  # the system died; parked work is recovered by a peer

    def _execute(self, job: BatchJob) -> Generator:
        # batch runs beneath online work (WLM discretionary priority)
        remaining = job.cpu_seconds
        while remaining > 0:
            burn = min(0.002, remaining)
            yield from self.node.cpu.consume(burn, priority=5)
            remaining -= burn
        for _ in range(job.io_count):
            page = int(self.rng.integers(1_000_000))
            yield from self.farm.read_page(page)

    # -- failure recovery -----------------------------------------------------------
    def recover_member(self, dead_index: int) -> Generator:
        """Process step: requeue a dead member's parked jobs (peer runs
        this).  Each job goes back to its class queue and will be taken
        by some surviving initiator."""
        parked = self.spool.exec_header(dead_index)

        def requeue_on(s, c):
            n = 0
            for entry in s.read(parked):
                job: BatchJob = entry.data
                s.move(c, parked, self.spool.class_header(job.job_class),
                       entry.entry_id, where="keyed")
                n += 1
            return n

        n = yield from self.xes.sync(requeue_on, write=True,
                                     service_factor=2.0)
        self.spool.requeued += n
        return n

"""Configuration dataclasses and the calibrated cost model.

Every timing constant in the simulation lives here, with a comment saying
what 1995-era artifact it stands in for.  The headline claims of the paper
(Figure 3 shape, the <18 % data-sharing transition cost, the <0.5 %
per-system increment) are *not* hard-coded anywhere — they emerge from these
per-operation costs flowing through the mechanism models.  DESIGN.md §4
explains the calibration rationale.

All times are in **seconds** (so ``12e-6`` is 12 µs).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

__all__ = [
    "CpuConfig",
    "LinkConfig",
    "DasdConfig",
    "CfConfig",
    "XcfConfig",
    "WlmConfig",
    "ArmConfig",
    "SfmConfig",
    "DatabaseConfig",
    "OltpConfig",
    "SysplexConfig",
    "DUPLEX_POLICIES",
]

MICRO = 1e-6
MILLI = 1e-3

#: Structure-duplexing policies: which structure classes keep a hot
#: secondary instance in a second CF (``"all"`` = every class).
DUPLEX_POLICIES = ("none", "lock", "cache", "list", "all")


@dataclass
class CpuConfig:
    """A system node's CPU complex (a tightly coupled multiprocessor)."""

    #: Engines per system (the paper's initial product: 1-10).
    n_cpus: int = 1
    #: Relative engine speed (1.0 = the reference single engine).
    speed: float = 1.0
    #: Multiprocessor-effect inflation: running on an ``n``-way TCMP
    #: inflates every CPU-second by ``1 + mp_alpha * (n-1) ** mp_beta``.
    #: This models hardware cache cross-invalidation, conceptual instruction
    #: sequencing, and software serialization (paper §4) and is what bends
    #: the TCMP curve in Figure 3.  Defaults give a 10-way ~7.4 effective
    #: engines, matching published S/390 MP ratios.
    mp_alpha: float = 0.032
    mp_beta: float = 1.10

    def inflation(self, n: Optional[int] = None) -> float:
        """CPU-time inflation factor for an ``n``-way complex."""
        n = self.n_cpus if n is None else n
        if n <= 1:
            return 1.0
        return 1.0 + self.mp_alpha * (n - 1) ** self.mp_beta

    def effective_engines(self, n: Optional[int] = None) -> float:
        """Analytic effective capacity of an ``n``-way TCMP in engines."""
        n = self.n_cpus if n is None else n
        return n / self.inflation(n)


@dataclass
class LinkConfig:
    """A coupling link (fiber-optic channel to the Coupling Facility)."""

    #: One-way propagation + protocol latency.
    latency: float = 2 * MICRO
    #: Paper: "50 MegaBytes/second or 100 MB/second" — bytes/second here.
    bandwidth: float = 100e6
    #: Concurrent operations per link (subchannel images).
    subchannels: int = 2
    #: Links from each system to each CF.
    links_per_system: int = 2

    def transfer_time(self, nbytes: int) -> float:
        return nbytes / self.bandwidth


@dataclass
class DasdConfig:
    """Shared DASD (ESCON-attached direct access storage)."""

    #: Mean device service time for a 4K page (cached controller era).
    service_mean: float = 2.5 * MILLI
    #: Service time spread (lognormal sigma in log-space).
    service_sigma: float = 0.35
    #: Channel paths per device (ESCON multi-path, paper §3.1).
    paths: int = 4
    #: Page size moved per I/O.
    page_size: int = 4096


@dataclass
class CfConfig:
    """The Coupling Facility and its command cost model."""

    #: CF processors executing commands (the CF is itself S/390-based).
    n_cpus: int = 2
    #: CF processor service time for a simple command (lock request,
    #: directory registration).  The paper: "synchronous execution times
    #: measured in micro-seconds".
    cmd_service: float = 3 * MICRO
    #: Extra CF service for data-carrying commands (cache read/write, list
    #: entry with data), on top of link transfer time.
    data_cmd_service: float = 6 * MICRO
    #: Requester-side CPU to build/issue a sync command and process its
    #: response (the CPU *spins* for the round trip — no task switch).
    sync_issue_cpu: float = 3 * MICRO
    #: Additional requester CPU for an *async* command: back-end completion
    #: processing, task switch, cache disruption (what sync mode avoids).
    async_extra_cpu: float = 45 * MICRO
    #: Latency of a cross-invalidate / list-notification signal delivered by
    #: the CF to a system.  Zero *target* CPU cost by design (paper §3.3.2).
    signal_latency: float = 4 * MICRO
    #: Lock-table entries in a lock structure (2^20 default: false
    #: contention "kept to a minimum", §3.3.1).
    lock_table_entries: int = 1 << 20
    #: Cache structure capacity in 4K data elements.
    cache_elements: int = 65536
    #: Directory entries (names trackable) in a cache structure.
    cache_directory_entries: int = 1 << 18
    #: End-to-end budget for one CF request attempt.  ``None`` (default)
    #: disables request-level robustness entirely — commands take the
    #: plain single-attempt path with no extra events, so established
    #: results stay byte-identical.  Chaos runs enable it.
    request_timeout: Optional[float] = None
    #: Redrive attempts after a timeout / interface control check before
    #: the request fails (only with ``request_timeout`` set).
    request_retries: int = 3
    #: Base delay of the exponential backoff between redrives; attempt
    #: ``k`` waits ``retry_backoff * 2**k`` (jittered when the port has a
    #: seeded RNG).
    retry_backoff: float = 20 * MICRO
    #: System-managed structure duplexing policy: ``"none"`` (default —
    #: simplex structures, byte-identical to historical results),
    #: ``"lock"``/``"cache"``/``"list"`` (duplex that structure class
    #: only), or ``"all"``.  Duplexed structures keep a hot secondary in
    #: a second CF: mutating commands pay the secondary's link + service
    #: latency, and CF failure becomes a duplex *switch* instead of a
    #: rebuild (paper §3.3: "Multiple CF's can be connected for
    #: availability").  Requires ``n_cfs >= 2`` to take effect.
    duplex: str = "none"

    def __post_init__(self) -> None:
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        if self.request_retries < 0:
            raise ValueError("request_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.duplex not in DUPLEX_POLICIES:
            raise ValueError(
                f"unknown duplex policy {self.duplex!r} "
                f"(expected one of {DUPLEX_POLICIES})"
            )

    def duplexes(self, model: str) -> bool:
        """Whether this policy duplexes structures of class ``model``."""
        return self.duplex == "all" or self.duplex == model


@dataclass
class XcfConfig:
    """Cross-system coupling facility (messaging + status monitoring)."""

    #: One-way CTC message latency between systems.
    message_latency: float = 400 * MICRO
    #: Sender/receiver CPU per message (SRB dispatch, interrupt handling).
    message_cpu: float = 60 * MICRO
    #: Interval between status (heartbeat) updates to the couple data set.
    heartbeat_interval: float = 0.5
    #: Missed-update threshold before a system is declared status-missing.
    heartbeat_misses: int = 2
    #: Time for SFM to fence (isolate) a failed system once detected.
    fencing_time: float = 0.2


@dataclass
class WlmConfig:
    """Workload Manager policy engine."""

    #: Sampling interval for utilization / performance-index updates.
    interval: float = 0.1
    #: EWMA smoothing for utilization estimates.
    smoothing: float = 0.5
    #: Response-time goal for the default OLTP service class.
    response_goal: float = 50 * MILLI


@dataclass
class ArmConfig:
    """Automatic Restart Manager."""

    #: Time to restart a failed subsystem instance on a healthy system.
    restart_time: float = 2.0
    #: Per retained-lock recovery processing during peer/restart recovery.
    lock_recovery_each: float = 200 * MICRO
    #: Fixed log-replay portion of subsystem recovery.
    log_replay_time: float = 0.5


@dataclass
class SfmConfig:
    """Sysplex Failure Management policy for CF-structure recovery.

    Declarative per-run recovery policy (paper §5.2's SFM couple data
    set): how fast a CF failure is *detected*, how long the sysplex
    waits before re-establishing a lost secondary, and the per-class
    recovery-time SLOs the experiments score incidents against.
    """

    #: Time from a CF failing to the sysplex acting on it (status-update
    #: missing detection through the couple data set).
    detection_interval: float = 20 * MILLI
    #: Delay before a structure that dropped to simplex re-establishes a
    #: new secondary in another live CF (lets the failure storm settle).
    reestablish_delay: float = 0.5
    #: Recovery-time service-level objectives per structure class, in
    #: milliseconds (detect -> resume); incidents are scored against
    #: these in the recovery timelines.
    lock_slo_ms: float = 50.0
    cache_slo_ms: float = 150.0
    list_slo_ms: float = 150.0

    def __post_init__(self) -> None:
        if self.detection_interval < 0:
            raise ValueError("detection_interval must be >= 0")
        if self.reestablish_delay < 0:
            raise ValueError("reestablish_delay must be >= 0")

    def slo_ms(self, model: str) -> float:
        """The recovery SLO for structure class ``model`` (ms)."""
        return {
            "lock": self.lock_slo_ms,
            "cache": self.cache_slo_ms,
            "list": self.list_slo_ms,
        }.get(model, self.list_slo_ms)


@dataclass
class DatabaseConfig:
    """The record database and its managers (DB2/IMS-DB stand-in)."""

    n_pages: int = 50_000
    #: Local buffer pool pages per database-manager instance.
    buffer_pages: int = 15_000
    #: Whether changed pages are also written to the CF cache structure
    #: (store-in) for high-speed peer refresh, vs. DASD only.
    store_in_cf: bool = True
    #: CPU per database call (path length of the data manager itself).
    db_call_cpu: float = 60 * MICRO
    #: CPU to force a log record group at commit.
    log_force_cpu: float = 30 * MICRO
    #: Log force I/O time (DASD fast write era).
    log_force_io: float = 1.2 * MILLI
    #: Lock wait-for-graph deadlock detection interval.
    deadlock_interval: float = 0.5


@dataclass
class OltpConfig:
    """The synthetic CICS/DBCTL-like OLTP workload (paper §4's testbed)."""

    #: Base application CPU path length per transaction, *excluding*
    #: database calls (terminal handling, application logic).
    app_cpu: float = 1.7 * MILLI
    #: Database calls per transaction.
    reads_per_txn: int = 10
    writes_per_txn: int = 3
    #: Zipf skew of page accesses (0 = uniform).  0.6 keeps hot-page
    #: lock convoys below the level that would mask CPU scaling — the
    #: paper's measured workload was tuned the same way (EXP-BAL and the
    #: lock experiments sweep this up to show the contention regime).
    zipf_theta: float = 0.6
    #: Closed-loop terminals per configured engine (sets saturation).
    terminals_per_cpu: int = 15
    #: Think time between a terminal's transactions (0 = saturation drive).
    think_time: float = 0.0


@dataclass
class SysplexConfig:
    """Top-level description of one Parallel Sysplex to build."""

    n_systems: int = 2
    cpu: CpuConfig = field(default_factory=CpuConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    dasd: DasdConfig = field(default_factory=DasdConfig)
    cf: CfConfig = field(default_factory=CfConfig)
    xcf: XcfConfig = field(default_factory=XcfConfig)
    wlm: WlmConfig = field(default_factory=WlmConfig)
    arm: ArmConfig = field(default_factory=ArmConfig)
    sfm: SfmConfig = field(default_factory=SfmConfig)
    db: DatabaseConfig = field(default_factory=DatabaseConfig)
    oltp: OltpConfig = field(default_factory=OltpConfig)
    #: Number of Coupling Facilities (>=2 for CF failover).
    n_cfs: int = 1
    #: Data sharing on/off: a single system can run without connecting to
    #: the CF at all (the paper's non-data-sharing base case in §4).
    data_sharing: bool = True
    #: DASD devices the database is spread over.
    n_dasd: int = 32
    #: Root random seed.
    seed: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.n_systems <= 32:
            raise ValueError("paper supports 1..32 systems")
        if not 1 <= self.cpu.n_cpus <= 10:
            raise ValueError("paper supports 1..10 cpus per system")
        if self.n_cfs < 0:
            raise ValueError("n_cfs must be >= 0")
        if self.data_sharing and self.n_systems > 1 and self.n_cfs < 1:
            raise ValueError("multi-system data sharing requires a CF")

    def to_dict(self) -> dict:
        """A plain-data (JSON-serializable) view of the full config tree."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SysplexConfig":
        """Rebuild a config (and its nested sections) from :meth:`to_dict`."""
        kw = dict(data)
        for name, sub_cls in _SUBCONFIG_TYPES.items():
            if isinstance(kw.get(name), dict):
                kw[name] = sub_cls(**kw[name])
        return cls(**kw)


#: Nested config sections of :class:`SysplexConfig`, for deserialization.
_SUBCONFIG_TYPES = {
    "cpu": CpuConfig,
    "link": LinkConfig,
    "dasd": DasdConfig,
    "cf": CfConfig,
    "xcf": XcfConfig,
    "wlm": WlmConfig,
    "arm": ArmConfig,
    "sfm": SfmConfig,
    "db": DatabaseConfig,
    "oltp": OltpConfig,
}

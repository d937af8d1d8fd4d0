"""Configuration dataclasses for the simulated cluster.

Defaults mirror the paper's testbed (Section III-A): eight data servers
plus one metadata server, PVFS2 with a 64 KB striping unit, one HP
7200-RPM disk and one 120 GB SSD per data server (10 GB partition used
by iBridge), 20 KB thresholds for both regular random requests and
fragments, CFQ on the disk and Noop on the SSD.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import ConfigError
from .units import GiB, KiB, MiB, MS, US


class ReturnPolicy(str, Enum):
    """How the iBridge benefit (return) of SSD redirection is computed.

    ``PAPER`` follows Eq. 1 literally: the return compares the
    candidate's estimated *per-request* disk service time against the
    EWMA of recent per-request service times.  In a mixed stream a
    fragment is cheaper per-request than a full stripe piece (it moves
    less data), so its mean return is near zero and admissions happen
    only through seek-distance noise — the cache fills slowly and
    decisions are erratic.  Eq. 3's sibling boost is then what reliably
    pushes gating fragments over the threshold (see the ``degraded``
    experiment and DESIGN.md §6.1).

    ``EFFICIENCY`` (default) normalizes service times per striping unit
    of data moved, matching the paper's stated intent ("slow the disk
    down" in terms of *disk efficiency*): a 1 KB fragment that costs a
    full positioning delay is charged as if the disk spent that
    positioning time for 1/64th of a stripe of useful data.
    """

    PAPER = "paper"
    EFFICIENCY = "efficiency"


@dataclass(frozen=True)
class HDDConfig:
    """Hard disk model parameters.

    The positioning model is ``D_to_T(seek_distance) + rotational_miss``
    for non-contiguous requests.  ``seek_base``/``seek_full`` define a
    concave (square-root) seek curve from a one-sector hop to a
    full-stroke seek, following the offline-profiling approach of Huang
    et al. that the paper adopts for its Eq. 1 estimator.  Values are
    NCQ-effective (queue-depth-reduced) rather than raw mechanical
    latencies.
    """

    capacity: int = 1024 * GiB
    seq_read_bw: float = 85 * MiB  # bytes/s, Table II
    seq_write_bw: float = 80 * MiB
    seek_base: float = 0.15 * MS          # minimum non-zero seek
    seek_full: float = 8.5 * MS           # full-stroke seek
    rotational_miss: float = 2.0 * MS     # effective rotational latency
    #: Extra positioning for small non-contiguous writes: sub-page
    #: boundaries force read-modify-write plus an extra rotation.  Large
    #: writes amortize this through the page cache and pay only
    #: ``write_large_penalty``.
    write_settle: float = 7.0 * MS
    write_settle_threshold: int = 20 * 1024
    write_large_penalty: float = 0.3 * MS
    #: Forward window within which a *write* is priced as a sweep
    #: continuation.  Much smaller than ``skip_window``: an isolated
    #: write landing ahead of the head still pays its read-modify-write
    #: penalty unless it is part of a dense ascending burst (e.g. the
    #: iBridge writeback daemon's sorted batches).
    write_sweep_window: int = 256 * 1024
    #: A sweep is only a sweep while the device stays busy: if the disk
    #: idled longer than this between dispatches, the platter has
    #: rotated away and the next write pays a full reposition even when
    #: it is forward-adjacent.  This is what makes a synchronous stream
    #: of tiny writes (BTIO) slow on the stock system.
    sweep_idle_reset: float = 0.3 * MS
    #: Contiguity slack: a request starting within this many bytes of the
    #: current head position is treated as (near-)sequential.
    contiguity_slack: int = 0
    #: Maximum forward distance servable by letting the media pass under
    #: the head (cost = distance / transfer rate) instead of a re-seek.
    #: The model charges min(pass-over, seek + rotation) for forward
    #: skips; this is what lets a disk stream over small holes left by
    #: fragments that iBridge redirected to the SSD.
    skip_window: int = 4 * 1024 * 1024

    def validate(self) -> None:
        if self.capacity <= 0:
            raise ConfigError("HDD capacity must be positive")
        if min(self.seq_read_bw, self.seq_write_bw) <= 0:
            raise ConfigError("HDD bandwidths must be positive")
        if self.seek_full < self.seek_base:
            raise ConfigError("seek_full must be >= seek_base")
        if min(self.seek_base, self.rotational_miss, self.write_settle,
               self.write_large_penalty) < 0:
            raise ConfigError("HDD latencies must be non-negative")
        if self.skip_window < 0:
            raise ConfigError("skip_window must be non-negative")
        if self.write_settle_threshold < 0:
            raise ConfigError("write_settle_threshold must be non-negative")
        if self.write_sweep_window < 0:
            raise ConfigError("write_sweep_window must be non-negative")
        if self.sweep_idle_reset < 0:
            raise ConfigError("sweep_idle_reset must be non-negative")


@dataclass(frozen=True)
class SSDConfig:
    """SSD model parameters, calibrated to Table II corner bandwidths.

    ``read_setup``/``write_setup`` are the per-command costs for
    non-contiguous accesses; they are derived so that 4 KB random
    accesses reproduce the paper's random corners while streaming hits
    the sequential corners.
    """

    capacity: int = 120 * GiB
    seq_read_bw: float = 160 * MiB
    seq_write_bw: float = 140 * MiB
    read_setup: float = 40.7 * US
    write_setup: float = 102.3 * US

    # ---- FTL / garbage-collection model (repro.devices.ftl) ----------
    #: Model the drive's internals: a page-mapped FTL with
    #: over-provisioning, background/foreground garbage collection, a
    #: write-amplification ledger, and GC-window read variability.
    #: Off by default — the plain Table-II timing model is unchanged.
    ftl_enabled: bool = False
    #: Flash page size (the FTL's mapping granularity).
    ftl_page_size: int = 4 * KiB
    #: Pages per erase block (64 x 4 KiB = 256 KiB erase blocks).
    ftl_pages_per_block: int = 64
    #: Physical capacity = logical capacity * (1 + over-provision).
    ftl_over_provision: float = 0.25
    #: Foreground GC engages when the free-block fraction drops below
    #: this...
    gc_low_watermark: float = 0.10
    #: ...and collects until it climbs back above this.
    gc_high_watermark: float = 0.25
    #: Time to erase one block.
    gc_erase_time: float = 2.0 * MS
    #: Foreground GC charge cap per command in "throttle" mode; "pause"
    #: mode charges a whole collection burst to the unlucky command.
    gc_slice: float = 1.5 * MS
    #: "throttle" (spread GC stalls over commands) or "pause"
    #: (stop-and-collect bursts).
    gc_mode: str = "throttle"
    #: Fleet GC scheduling across the per-server SSD array:
    #: "unsync" (each drive collects on its own watermark, the
    #: tail-magnifying default), "sync" (stop-the-fleet: any drive's
    #: pressure opens a fleet-wide collection window so stalls align
    #: across stripes), or "stagger" (round-robin time slots; at most
    #: one drive collects at a time).
    gc_policy: str = "unsync"
    #: Stagger policy: length of one drive's collection turn.
    gc_stagger_slot: float = 20 * MS
    #: Upper bound of the uniform extra read latency while a drive is
    #: under GC pressure (read/program/erase contention on the chip).
    gc_read_jitter: float = 1.0 * MS

    def validate(self) -> None:
        if self.capacity <= 0:
            raise ConfigError("SSD capacity must be positive")
        if min(self.seq_read_bw, self.seq_write_bw) <= 0:
            raise ConfigError("SSD bandwidths must be positive")
        if min(self.read_setup, self.write_setup) < 0:
            raise ConfigError("SSD setup times must be non-negative")
        if self.ftl_page_size <= 0:
            raise ConfigError("ftl_page_size must be positive")
        if self.ftl_pages_per_block < 2:
            raise ConfigError("ftl_pages_per_block must be >= 2")
        if self.ftl_over_provision <= 0:
            raise ConfigError("ftl_over_provision must be positive")
        if not 0.0 < self.gc_low_watermark < self.gc_high_watermark < 1.0:
            raise ConfigError(
                "GC watermarks need 0 < low < high < 1, got "
                f"{self.gc_low_watermark}/{self.gc_high_watermark}")
        if self.gc_erase_time < 0 or self.gc_slice < 0:
            raise ConfigError("GC times must be non-negative")
        if self.gc_mode not in ("throttle", "pause"):
            raise ConfigError(f"unknown gc_mode {self.gc_mode!r}")
        if self.gc_policy not in ("unsync", "sync", "stagger"):
            raise ConfigError(f"unknown gc_policy {self.gc_policy!r}")
        if self.gc_stagger_slot <= 0:
            raise ConfigError("gc_stagger_slot must be positive")
        if self.gc_read_jitter < 0:
            raise ConfigError("gc_read_jitter must be non-negative")
        if self.ftl_enabled:
            pages = -(-self.capacity // self.ftl_page_size)
            spare = int(pages * self.ftl_over_provision)
            if spare < 4 * self.ftl_pages_per_block:
                raise ConfigError(
                    "FTL over-provisioning must cover at least 4 erase "
                    "blocks; shrink ftl_pages_per_block or raise "
                    "ftl_over_provision/capacity")


@dataclass(frozen=True)
class SchedulerConfig:
    """Block-layer scheduler parameters."""

    #: Scheduler kind: "cfq", "noop", or "deadline".
    kind: str = "cfq"
    #: Max contiguous merge size for one dispatched request.
    max_merge_bytes: int = 512 * KiB
    #: Merge contiguous requests across processes at insert time (Linux
    #: elevator semantics).  CFQ still *dispatches* per-stream; disabling
    #: this restricts merging to within a stream (ablation).
    global_merge: bool = True
    #: Only merge into queued requests younger than this.  Models the
    #: bounded merge opportunity of a real data server (plug windows,
    #: Trove flow buffers): a request that has been sitting in the queue
    #: has usually already been set up for dispatch.  This is what keeps
    #: saturation from silently reassembling unaligned pieces, matching
    #: the paper's Fig. 2(d) observation.
    merge_window: float = 2.0 * MS
    #: CFQ: number of requests dispatched from one stream's queue before
    #: rotating to the next stream.  Large enough that a sorted
    #: background writeback burst is served as a real sweep.
    quantum: int = 8
    #: CFQ: how long to idle waiting for the active stream's next request.
    #: Linux CFQ stops idling for streams with long think times (our MPI
    #: ranks always have long think times), so the effective default is
    #: small.
    idle_window: float = 0.2 * MS

    def validate(self) -> None:
        if self.kind not in ("cfq", "noop", "deadline"):
            raise ConfigError(f"unknown scheduler kind {self.kind!r}")
        if self.max_merge_bytes < 4 * KiB:
            raise ConfigError("max_merge_bytes unreasonably small")
        if self.quantum < 1:
            raise ConfigError("quantum must be >= 1")
        if self.idle_window < 0:
            raise ConfigError("idle_window must be non-negative")
        if self.merge_window < 0:
            raise ConfigError("merge_window must be non-negative")


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect model (dual-rail 4X QDR InfiniBand in the paper)."""

    latency: float = 20 * US          # one-way message latency
    bandwidth: float = 3200 * MiB     # per-NIC bandwidth, bytes/s
    #: Fixed per-message software overhead (PVFS2 request processing).
    message_overhead: float = 30 * US

    def validate(self) -> None:
        if self.latency < 0 or self.message_overhead < 0:
            raise ConfigError("network latencies must be non-negative")
        if self.bandwidth <= 0:
            raise ConfigError("network bandwidth must be positive")


@dataclass(frozen=True)
class IBridgeConfig:
    """iBridge policy parameters (paper Section II)."""

    enabled: bool = False
    #: SSD partition size available to iBridge (10 GB in the paper).
    ssd_partition: int = 10 * GiB
    #: Requests smaller than this are "regular random" candidates.
    random_threshold: int = 20 * KiB
    #: Sub-requests smaller than this (with siblings) are fragments.
    fragment_threshold: int = 20 * KiB
    #: How the redirection benefit is computed (see ReturnPolicy).
    return_policy: ReturnPolicy = ReturnPolicy.EFFICIENCY
    #: Period of the per-server T-value report to the metadata server.
    report_period: float = 1.0
    #: EWMA weights from Eq. 1 (old, new).
    ewma_old_weight: float = 1.0 / 8.0
    ewma_new_weight: float = 7.0 / 8.0
    #: Dynamic partitioning between random requests and fragments.  When
    #: False, ``static_split`` gives the (random, fragment) shares.
    dynamic_partition: bool = True
    static_split: tuple = (0.5, 0.5)
    #: Idle window before background writeback / admission copies run.
    writeback_idle: float = 2.0 * MS
    #: Max bytes coalesced into one writeback pass batch.
    writeback_batch: int = 4 * MiB
    #: Admit read-miss data into the SSD cache (pre-loading for reruns).
    admit_reads: bool = True
    #: Use the striping-magnification sibling term of Eq. 3.
    use_sibling_term: bool = True
    #: Write redirected data to the SSD log-structured store (paper
    #: behaviour).  False = in-place SSD writes (ablation).
    log_structured: bool = True

    def validate(self) -> None:
        if self.ssd_partition < 0:
            raise ConfigError("ssd_partition must be non-negative")
        if self.random_threshold <= 0 or self.fragment_threshold <= 0:
            raise ConfigError("thresholds must be positive")
        if self.report_period <= 0:
            raise ConfigError("report_period must be positive")
        if abs(self.ewma_old_weight + self.ewma_new_weight - 1.0) > 1e-9:
            raise ConfigError("EWMA weights must sum to 1")
        if not self.dynamic_partition:
            a, b = self.static_split
            if a < 0 or b < 0 or abs(a + b - 1.0) > 1e-9:
                raise ConfigError("static_split must be non-negative and sum to 1")


@dataclass(frozen=True)
class AuditConfig:
    """The invariant-auditing / watchdog subsystem (:mod:`repro.audit`).

    Disabled by default: production-size runs should not pay the shadow
    accounting.  Tests and examples enable it to catch byte-conservation
    violations, cache-coherence drift, and simulation livelocks online.
    """

    enabled: bool = False
    #: Raise :class:`repro.errors.AuditError` at the violation site.
    #: When False, violations are recorded on the runtime (and traced)
    #: but the run continues — useful for surveying a misbehaving run.
    strict: bool = True
    #: Check after every mutation that the MappingTable, LogStore,
    #: PartitionManager, ``_by_lbn`` index and FTL accounts agree.  Each
    #: check re-reads only what its mutation touched, against shadow
    #: state the auditor keeps; a mismatch, an explicit check, a phase
    #: boundary or the amortised cadence runs a full recount
    #: (docs/AUDITING.md).
    check_coherence: bool = True
    #: Track payload bytes end-to-end and assert conservation per read
    #: and at end-of-run drain.
    check_conservation: bool = True
    #: Run the livelock/stall watchdog process.
    watchdog: bool = True
    #: Simulated seconds without a single block-request completion
    #: (while work is pending) before the watchdog fires.  Device
    #: service times are ms-scale, so seconds of silence mean a stall.
    watchdog_window: float = 2.0
    #: Write the structured event trace to this JSONL file (None = keep
    #: an in-memory ring only).
    trace_path: Optional[str] = None
    #: Events kept in the in-memory ring buffer.
    trace_limit: int = 4096

    def validate(self) -> None:
        if self.watchdog_window <= 0:
            raise ConfigError("watchdog_window must be positive")
        if self.trace_limit < 0:
            raise ConfigError("trace_limit must be non-negative")


@dataclass(frozen=True)
class ObsConfig:
    """The observability layer (:mod:`repro.obs`): tracing + metrics.

    Disabled by default, following the ``BlockTracer`` pattern: with
    ``enabled`` False no tracer or registry is built, instrumented
    sites see a ``None`` attribute, and a run pays one attribute load
    per site (measured by ``benchmarks/perf/obs_bench.py``).
    """

    enabled: bool = False
    #: Record request span trees (client → network → server → device).
    trace: bool = True
    #: Run the metrics registry + sim-time sampler process.  Note the
    #: sampler consumes event-heap sequence numbers, so enabling metrics
    #: perturbs event schedules — this config is part of the experiment
    #: cache key for exactly that reason.
    metrics: bool = True
    #: Simulated seconds between metric samples.
    sample_period: float = 0.05
    #: Spans retained in memory before counting drops.
    max_spans: int = 200_000
    #: Append span JSONL here at end of run (None = in-memory only).
    trace_path: Optional[str] = None
    #: Append metrics JSONL here at end of run (None = in-memory only).
    metrics_path: Optional[str] = None
    #: Write the final Prometheus-text metrics snapshot here at end of
    #: run (None = off).  Overwritten per cluster — exposition text has
    #: one series per line, so unlike JSONL it cannot append; the file
    #: always holds the latest cluster's final state, scrape-style.
    metrics_text_path: Optional[str] = None
    #: Stream spans to ``trace_path`` incrementally: after this many
    #: span closures the pending batch is appended and fsync-flushed, so
    #: traces from aborted / OOM-killed / budget-killed runs survive up
    #: to the last batch instead of vanishing with ``finish_run``.
    #: ``0`` restores export-at-end-of-run-only.  Purely I/O-side: the
    #: flush is driven by span closures, not by a sim process, so it
    #: never perturbs event schedules.
    flush_spans: int = 256
    #: Sim-seconds between timeline ticks (:mod:`repro.obs.timeline`).
    #: ``0`` (default) disables the recorder entirely — no process, no
    #: ring buffer, no per-event cost.  When positive, a sim process
    #: snapshots every registry gauge each tick (cumulative series are
    #: additionally emitted as per-second rates) into a bounded ring
    #: buffer; like the metrics sampler, the ticker consumes event-heap
    #: sequence numbers, so this knob is part of the cache key via
    #: ObsConfig.
    timeline_dt: float = 0.0
    #: Timeline rows retained in the ring buffer (oldest evicted first).
    timeline_limit: int = 100_000
    #: Append timeline JSONL here at end of run (None = in-memory only).
    timeline_path: Optional[str] = None
    #: 1-in-N root-trace sampling: only parent requests whose trace id
    #: is divisible by N keep their span trees; the other N-1 traces
    #: allocate recycled (slab) spans that are dropped at close.  The
    #: decision is a pure function of the trace id, so it propagates
    #: down the whole request tree (client → network → server → block
    #: layer) without any extra wire state, and every *retained* trace
    #: is complete — the critical-path analyzer's per-kind breakdowns
    #: still sum exactly to root latency.  ``1`` (default) samples
    #: everything and is bit-identical to the pre-sampling tracer.
    trace_sample_n: int = 1

    def validate(self) -> None:
        if self.sample_period <= 0:
            raise ConfigError("sample_period must be positive")
        if self.max_spans < 0:
            raise ConfigError("max_spans must be non-negative")
        if self.flush_spans < 0:
            raise ConfigError("flush_spans must be non-negative")
        if self.trace_sample_n < 1:
            raise ConfigError("trace_sample_n must be >= 1")
        if self.timeline_dt < 0:
            raise ConfigError("timeline_dt must be non-negative")
        if self.timeline_limit < 0:
            raise ConfigError("timeline_limit must be non-negative")
        if self.timeline_dt > 0 and not self.metrics:
            raise ConfigError("the timeline recorder samples the metrics "
                              "registry; timeline_dt > 0 needs metrics=True")
        if self.enabled and not (self.trace or self.metrics):
            raise ConfigError("obs enabled with neither trace nor metrics")


@dataclass(frozen=True)
class RetryConfig:
    """Client-side timeout/retry for PFS sub-requests.

    Enabled by default with a deliberately generous timeout: even
    outside fault-injection runs, a data server that never replies must
    surface as a typed :class:`repro.errors.RequestTimeoutError` instead
    of hanging the simulation silently (the livelock watchdog only runs
    when auditing is on).  Fault experiments tighten these bounds to
    exercise the recovery path.
    """

    enabled: bool = True
    #: Seconds of simulated time to wait for one sub-request round trip
    #: before retrying.  Device service times are ms-scale, so tens of
    #: seconds of silence mean the reply is never coming.
    timeout: float = 30.0
    #: Retries after the first attempt; exhaustion raises
    #: :class:`repro.errors.RequestTimeoutError`.
    max_retries: int = 4
    #: First retry is delayed by this much ...
    backoff_base: float = 0.01
    #: ... doubling (``backoff_factor``) per attempt, capped at
    #: ``backoff_cap`` — the classic capped exponential backoff.
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    #: Total simulated seconds a sub-request may spend retrying before
    #: the client gives up, regardless of how many attempts remain.
    #: ``None`` disables the cap (attempt-count bound only).  The cap
    #: exists because the attempt budget alone is unbounded in *time*:
    #: a slow-but-not-lost attempt restarts the per-attempt deadline, so
    #: pathological fault overlaps could stretch a "bounded" retry loop
    #: arbitrarily.  Chaos episodes (:mod:`repro.chaos`) set this to a
    #: value derived from the fault-plan horizon.
    total_timeout: Optional[float] = None

    def validate(self) -> None:
        if self.timeout <= 0:
            raise ConfigError("retry timeout must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError("backoff bounds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.total_timeout is not None and self.total_timeout <= 0:
            raise ConfigError("total_timeout must be positive (or None)")

    def backoff(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based), capped exponential."""
        return min(self.backoff_base * self.backoff_factor ** attempt,
                   self.backoff_cap)


@dataclass(frozen=True)
class ServerConfig:
    """Per-data-server parameters."""

    #: Per-request server software overhead (job creation, flow setup).
    request_overhead: float = 100 * US
    #: Concurrent I/O jobs a server works on (Trove threads).
    io_depth: int = 16
    #: Disks per data server (paper §II extension: each disk gets its
    #: own iBridge manager sharing the server's SSD).  File handles map
    #: to disks round-robin.
    disks_per_server: int = 1

    def validate(self) -> None:
        if self.request_overhead < 0:
            raise ConfigError("request_overhead must be non-negative")
        if self.io_depth < 1:
            raise ConfigError("io_depth must be >= 1")
        if self.disks_per_server < 1:
            raise ConfigError("disks_per_server must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    """Top-level description of the simulated parallel I/O system."""

    num_servers: int = 8
    stripe_unit: int = 64 * KiB
    hdd: HDDConfig = field(default_factory=HDDConfig)
    ssd: SSDConfig = field(default_factory=SSDConfig)
    hdd_scheduler: SchedulerConfig = field(default_factory=lambda: SchedulerConfig(kind="cfq"))
    ssd_scheduler: SchedulerConfig = field(default_factory=lambda: SchedulerConfig(kind="noop"))
    network: NetworkConfig = field(default_factory=NetworkConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    ibridge: IBridgeConfig = field(default_factory=IBridgeConfig)
    audit: AuditConfig = field(default_factory=AuditConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: Client-side per-request overhead (MPI-IO + PVFS2 client split).
    client_overhead: float = 50 * US
    #: Uniform per-request client think-time jitter upper bound.  Models
    #: the nondeterminism of parallel execution the paper identifies as
    #: the reason uncoordinated processes defeat in-kernel merging:
    #: ranks progressively drift out of phase, so the contiguous partner
    #: of a piece has usually been dispatched long before it arrives.
    #: Kept small relative to device service times so that tiny-request
    #: workloads (BTIO) remain storage-bound, as on the real testbed.
    client_jitter: float = 0.3 * MS
    #: Data placement: store files on SSD instead of HDD ("SSD-only"
    #: configuration of Fig. 10).  iBridge must be disabled in that case.
    primary_store: str = "hdd"
    seed: int = 20130520

    def validate(self) -> None:
        if self.num_servers < 1:
            raise ConfigError("need at least one data server")
        if self.stripe_unit < 4 * KiB:
            raise ConfigError("stripe unit unreasonably small")
        if self.primary_store not in ("hdd", "ssd"):
            raise ConfigError(f"unknown primary_store {self.primary_store!r}")
        if self.primary_store == "ssd" and self.ibridge.enabled:
            raise ConfigError("iBridge requires the HDD primary store")
        if self.client_overhead < 0:
            raise ConfigError("client_overhead must be non-negative")
        if self.client_jitter < 0:
            raise ConfigError("client_jitter must be non-negative")
        self.hdd.validate()
        self.ssd.validate()
        self.hdd_scheduler.validate()
        self.ssd_scheduler.validate()
        self.network.validate()
        self.server.validate()
        self.ibridge.validate()
        self.audit.validate()
        self.retry.validate()
        self.obs.validate()

    def with_ibridge(self, **overrides) -> "ClusterConfig":
        """Copy of this config with iBridge enabled (plus overrides)."""
        ib = dataclasses.replace(self.ibridge, enabled=True, **overrides)
        return dataclasses.replace(self, ibridge=ib)

    def with_audit(self, **overrides) -> "ClusterConfig":
        """Copy of this config with auditing enabled (plus overrides)."""
        audit = dataclasses.replace(self.audit, enabled=True, **overrides)
        return dataclasses.replace(self, audit=audit)

    def with_retry(self, **overrides) -> "ClusterConfig":
        """Copy of this config with adjusted client retry parameters."""
        retry = dataclasses.replace(self.retry, **overrides)
        return dataclasses.replace(self, retry=retry)

    def with_ftl(self, **overrides) -> "ClusterConfig":
        """Copy of this config with the SSD FTL/GC model enabled
        (plus SSDConfig overrides — watermarks, policy, capacity)."""
        ssd = dataclasses.replace(self.ssd, ftl_enabled=True, **overrides)
        return dataclasses.replace(self, ssd=ssd)

    def with_obs(self, **overrides) -> "ClusterConfig":
        """Copy of this config with observability enabled (+ overrides)."""
        obs = dataclasses.replace(self.obs, enabled=True, **overrides)
        return dataclasses.replace(self, obs=obs)

    def without_ibridge(self) -> "ClusterConfig":
        """Copy of this config with iBridge disabled (the stock system)."""
        ib = dataclasses.replace(self.ibridge, enabled=False)
        return dataclasses.replace(self, ibridge=ib)

    def replace(self, **overrides) -> "ClusterConfig":
        """Dataclass ``replace`` with validation."""
        cfg = dataclasses.replace(self, **overrides)
        cfg.validate()
        return cfg

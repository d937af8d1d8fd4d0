"""Solid-state drive timing model.

The SSD has no positional state to speak of: any non-contiguous command
pays a small, distance-independent setup cost (flash page lookup, FTL
indirection); contiguous commands stream at the sequential bandwidth.
The setup costs are derived in closed form from the paper's Table II so
that 4 KB random accesses reproduce the random corners exactly (see
``repro.devices.calibration.derive_ssd_setup``).

The large sequential/random *write* gap (140 vs 30 MB/s) is the reason
iBridge writes redirected data into a log-structured file on the SSD:
the log turns random application writes into contiguous device writes.

Contiguity is tracked **per operation class** (one read head, one write
head): the drive interleaves host streams across independent channels,
so the fill daemon's sequential log appends stay contiguous even while
partition reads land between them.  A single shared head would charge
``write_setup`` on every log append and erase exactly the sequential
advantage the log exists to exploit.

With ``SSDConfig.ftl_enabled`` the drive additionally runs the
page-mapped FTL/GC model from :mod:`repro.devices.ftl`: writes program
pages, garbage collection copies live pages and erases blocks, and the
time that work costs is charged to foreground commands through
:meth:`service_extra` — as one stop-and-collect stall (``gc_mode =
"pause"``) or spread in ``GC_SLICE`` instalments (``"throttle"``).
Reads served during a GC window pay a seeded uniform jitter term
(read/program/erase contention on the chip), the dominant tail
contributor in SSD read-variability studies.  ``last_gc_stall`` exposes
the GC share of the most recent command so the block layer can emit GC
pause spans for ``critical_path`` attribution.
"""

from __future__ import annotations

from ..config import (FTL_PAGE_SIZE, FTL_PAGES_PER_BLOCK, GC_ERASE_TIME,
                      GC_READ_JITTER, GC_SLICE, SSDConfig)
from ..util.rng import rng_stream
from .base import Device, Op
from .ftl import FlashTranslationLayer


class SolidStateDrive(Device):
    """SSD model calibrated to Table II."""

    name = "ssd"

    def __init__(self, config: SSDConfig | None = None, *,
                 seed: int = 0, name: str | None = None) -> None:
        self.config = config or SSDConfig()
        self.config.validate()
        super().__init__(self.config.capacity)
        if name is not None:
            self.name = name
        self._heads = {Op.READ: 0, Op.WRITE: 0}
        self._rng = rng_stream(seed, f"ssd-gc:{self.name}")
        self.ftl: FlashTranslationLayer | None = None
        if self.config.ftl_enabled:
            self.ftl = FlashTranslationLayer(
                self.config.capacity, FTL_PAGE_SIZE, FTL_PAGES_PER_BLOCK,
                self.config.ftl_over_provision)
        self._collecting = False
        self._gc_debt = 0.0
        self._gc_coordinator = None
        self._storm_depth = 0
        #: GC/storm share of the most recently served command's time;
        #: the block layer reads this to emit ``ssd.gc`` spans.
        self.last_gc_stall = 0.0
        #: Cumulative foreground time lost to GC stalls and storms.
        self.gc_stall_time = 0.0
        #: Optional observability hook (``callable(name)``): the obs
        #: timeline wires this to record GC-storm begin/end marks.
        #: ``None`` on unobserved runs — one attribute test per edge.
        self.obs_mark = None

    # ----------------------------------------------------------- streams
    def is_contiguous(self, lbn: int, op: Op = Op.READ) -> bool:
        """True when a request at ``lbn`` continues ``op``'s stream."""
        return lbn == self._heads[op]

    def reset_streams(self) -> None:
        """Forget stream state (measurement-window resets)."""
        self._head = 0
        self._heads = {Op.READ: 0, Op.WRITE: 0}

    def positioning_time(self, op: Op, lbn: int, nbytes: int) -> float:
        if self.is_contiguous(lbn, op):
            return 0.0
        return self.config.write_setup if op.is_write else self.config.read_setup

    def transfer_time(self, op: Op, nbytes: int) -> float:
        bw = self.config.seq_write_bw if op.is_write else self.config.seq_read_bw
        return nbytes / bw

    # ----------------------------------------------------------- FTL / GC
    @property
    def gc_active(self) -> bool:
        return (self._collecting or self._gc_debt > 0.0
                or self._storm_depth > 0)

    def set_gc_coordinator(self, coordinator) -> None:
        self._gc_coordinator = coordinator

    def gc_storm_begin(self) -> None:
        """Enter a GC-storm window (chaos fault): every command stalls
        one ``GC_SLICE`` and reads jitter, FTL or not."""
        self._storm_depth += 1
        if self.obs_mark is not None:
            self.obs_mark("gc_storm_begin")

    def gc_storm_end(self) -> None:
        if self._storm_depth > 0:
            self._storm_depth -= 1
            if self.obs_mark is not None:
                self.obs_mark("gc_storm_end")

    def trim(self, lbn: int, nbytes: int) -> None:
        """Host discard hint (the manager trims dropped log extents)."""
        if self.ftl is not None:
            self.ftl.trim(lbn, nbytes)

    def ftl_reset(self) -> None:
        """Factory-fresh internals (drive replacement after ssd_fail)."""
        if self.ftl is not None:
            self.ftl.reset()
        self._collecting = False
        self._gc_debt = 0.0
        self.last_gc_stall = 0.0
        self.reset_streams()

    def _gc_step_cost(self, copied_pages: int) -> float:
        """Time one collection burst step costs the drive: read + program
        the copied pages, then erase the reclaimed block."""
        nbytes = copied_pages * FTL_PAGE_SIZE
        return (nbytes / self.config.seq_read_bw
                + nbytes / self.config.seq_write_bw
                + GC_ERASE_TIME)

    def _gc_charge(self, min_free: int) -> float:
        """Run the collector as policy allows; return this command's
        foreground stall.  ``min_free`` is the free-block floor the
        upcoming command needs programmed headroom for — enforced even
        against a denying coordinator (emergency trickle: a policy may
        shape the tail but never wedge a drive)."""
        ftl, cfg = self.ftl, self.config
        if ftl.free_fraction() < cfg.gc_low_watermark:
            self._collecting = True
        allowed = self._collecting
        if self._gc_coordinator is not None:
            allowed = self._gc_coordinator.should_collect(
                self, pressured=self._collecting)
        if allowed:
            while ftl.free_fraction() < cfg.gc_high_watermark:
                copied = ftl.collect_one()
                if copied is None:
                    break
                self._gc_debt += self._gc_step_cost(copied)
            if ftl.free_fraction() >= cfg.gc_high_watermark:
                self._collecting = False
        while ftl.free_blocks < min_free:
            copied = ftl.collect_one()
            if copied is None:
                break
            self._gc_debt += self._gc_step_cost(copied)
        if self._gc_debt <= 0.0:
            return 0.0
        if cfg.gc_mode == "pause":
            charge = self._gc_debt
        else:
            charge = min(self._gc_debt, GC_SLICE)
        self._gc_debt -= charge
        return charge

    def notice_idle(self, idle_gap: float) -> None:
        """Idle time is when real drives collect for free: retire GC
        debt, then run background collection within the gap.  A burst
        that overruns the gap spills back into ``_gc_debt`` — GC that
        *starts* in an idle window but finishes under the next command
        stalls that command, which is exactly how saturated drives leak
        background work into the foreground."""
        budget = idle_gap
        paid = min(self._gc_debt, budget)
        self._gc_debt -= paid
        budget -= paid
        ftl, cfg = self.ftl, self.config
        if ftl is None:
            return
        # Idle collection answers to the same fleet policy as foreground
        # bursts.  An uncoordinated drive only collects under watermark
        # pressure (reactive); a coordinated drive collects proactively
        # whenever its window is open, which is the point of scheduling:
        # the window tells it *now* is a good time to work ahead.
        if ftl.free_fraction() < cfg.gc_low_watermark:
            self._collecting = True
        allowed = self._collecting
        if self._gc_coordinator is not None:
            allowed = self._gc_coordinator.should_collect(
                self, pressured=self._collecting)
        if not allowed:
            return
        while budget > 0.0 and ftl.free_fraction() < cfg.gc_high_watermark:
            copied = ftl.collect_one()
            if copied is None:
                break
            budget -= self._gc_step_cost(copied)
        if budget < 0.0:
            self._gc_debt += -budget
        if ftl.free_fraction() >= cfg.gc_high_watermark:
            self._collecting = False

    def service_extra(self, op: Op, lbn: int, nbytes: int) -> float:
        stall = 0.0
        if self.ftl is not None:
            # GC before programming: the command's pages must have
            # erased blocks to land in.
            min_free = 2
            if op.is_write:
                min_free = 2 + -(-nbytes // (FTL_PAGE_SIZE
                                             * FTL_PAGES_PER_BLOCK))
            stall += self._gc_charge(min_free)
            if op.is_write:
                self.ftl.host_write(lbn, nbytes)
        if self._storm_depth > 0:
            stall += GC_SLICE
        if not op.is_write and (stall > 0.0 or self.gc_active):
            stall += float(self._rng.random()) * GC_READ_JITTER
        self._heads[op] = lbn + nbytes
        self.last_gc_stall = stall
        self.gc_stall_time += stall
        return stall

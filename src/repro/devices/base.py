"""Abstract storage device model.

A device is a *timing* model: given an operation, a starting LBN (byte
address on the device) and a size, it returns how long the device needs
to serve it, updating its internal head/activity state.  The block
layer (``repro.block``) owns queueing and dispatch order; devices serve
exactly one request at a time.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum

from ..errors import DeviceFailedError, StorageError


class Op(str, Enum):
    """I/O operation direction."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        return self is Op.WRITE


@dataclass
class DeviceStats:
    """Aggregate counters a device keeps while serving requests."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    positioning_time: float = 0.0

    @property
    def total_requests(self) -> int:
        return self.reads + self.writes

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


class Device(abc.ABC):
    """Base class for storage device timing models."""

    name: str = "device"
    #: Foreground stall the last command paid to garbage collection;
    #: only a drive with an FTL model (``SolidStateDrive``) ever stalls.
    last_gc_stall: float = 0.0
    #: Fail-slow state (``repro.faults``): positioning time is scaled by
    #: ``latency_mult`` (an aging spindle's seeks/settles) and transfer
    #: time by ``bw_mult`` (a throttled medium).  Multiplying by 1.0 is
    #: exact, so a healthy device times requests bit-identically.
    latency_mult: float = 1.0
    bw_mult: float = 1.0
    #: Fail-stop state.  A failed device's block queue is paused, so
    #: serving a request on it is a simulation bug and raises
    #: :class:`~repro.errors.DeviceFailedError`.
    failed: bool = False

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise StorageError(f"device capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.stats = DeviceStats()
        self._head = 0  # byte address just past the last served request

    @property
    def head(self) -> int:
        """Current head position (byte address after the last request)."""
        return self._head

    def check_range(self, lbn: int, nbytes: int) -> None:
        """Validate that ``[lbn, lbn+nbytes)`` lies on the device."""
        if nbytes <= 0:
            raise StorageError(f"request size must be positive, got {nbytes}")
        if lbn < 0 or lbn + nbytes > self.capacity:
            raise StorageError(
                f"request [{lbn}, {lbn + nbytes}) outside device of "
                f"capacity {self.capacity}")

    @abc.abstractmethod
    def positioning_time(self, op: Op, lbn: int, nbytes: int) -> float:
        """Time to position for a request at ``lbn`` from the current head.

        ``nbytes`` participates because small non-contiguous writes pay
        a read-modify-write penalty on the disk model.
        """

    @abc.abstractmethod
    def transfer_time(self, op: Op, nbytes: int) -> float:
        """Media transfer time for ``nbytes``."""

    def estimate_service_time(self, op: Op, lbn: int, nbytes: int) -> float:
        """Service-time estimate *without* mutating device state.

        This is what iBridge's Eq. 1 evaluates when deciding whether to
        redirect a request: ``D_to_T(seek) + R + Size/B`` from the
        current head position, scaled by any fail-slow multipliers.
        """
        self.check_range(lbn, nbytes)
        return (self.positioning_time(op, lbn, nbytes) * self.latency_mult
                + self.transfer_time(op, nbytes) * self.bw_mult)

    def notice_idle(self, idle_gap: float) -> None:
        """Tell the device it sat idle for ``idle_gap`` seconds before
        the request about to be served (rotational state decays)."""

    def service_extra(self, op: Op, lbn: int, nbytes: int) -> float:
        """Extra service time charged by device-internal machinery.

        Called exactly once per served request, after the positioning
        and transfer components are computed; unlike those it *may*
        mutate internal state (an FTL programs pages here, garbage
        collection stalls land here).  Deliberately excluded from
        :meth:`estimate_service_time`, which must stay side-effect-free
        and models only what the host can predict (Eq. 1).
        """
        return 0.0

    def _after_serve(self) -> None:
        """Hook run after each served request (clears transient state)."""

    def serve(self, op: Op, lbn: int, nbytes: int,
              idle_gap: float = 0.0) -> float:
        """Serve the request, update state, and return the service time."""
        if self.failed:
            raise DeviceFailedError(
                f"{self.name}: I/O at lbn={lbn} on a failed device "
                f"(fail-stop windows must pause the block queue)")
        self.check_range(lbn, nbytes)
        if idle_gap > 0.0:
            self.notice_idle(idle_gap)
        pos = self.positioning_time(op, lbn, nbytes) * self.latency_mult
        xfer = self.transfer_time(op, nbytes) * self.bw_mult
        # Internal machinery (FTL programming, GC stalls) is charged
        # unscaled: fail-slow degrades the interface, not the drive's
        # own background work.
        extra = self.service_extra(op, lbn, nbytes)
        self._head = lbn + nbytes
        self._after_serve()
        self.stats.positioning_time += pos
        self.stats.busy_time += pos + xfer + extra
        if op.is_write:
            self.stats.writes += 1
            self.stats.bytes_written += nbytes
        else:
            self.stats.reads += 1
            self.stats.bytes_read += nbytes
        return pos + xfer + extra

    def reset_stats(self) -> None:
        """Zero the counters (head position is preserved)."""
        self.stats = DeviceStats()

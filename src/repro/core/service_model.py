"""iBridge's dynamic service-time model (paper Eqs. 1–3).

Each data server tracks the exponentially-weighted average service time
``T`` of requests *served by its disk*:

    T_i = T_{i-1} / 8 + (D_to_T(λ_i − λ_{i-1}) + R + Size_i / B) * 7/8   (Eq. 1)

Requests redirected to the SSD leave ``T`` unchanged (Eq. 2).  The
*return* of redirecting request ``i`` is ``T_i^disk − T_i^ssd``; when it
is positive, serving the request at the disk would slow the disk down,
so iBridge sends it to the SSD.

For a fragment whose disk currently has the largest ``T`` among the
servers holding its siblings, the return gains the striping
magnification term ``(T^max − T^sec_max) * n`` (Eq. 3).

Two return policies are provided (see :class:`repro.config.ReturnPolicy`):
the literal per-request form, and a per-striping-unit normalized form
matching the paper's disk-efficiency intent.  DESIGN.md §5 discusses
why the literal form does not bootstrap in a mixed stream; the
normalized form is the default and the ablation bench quantifies the
difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..config import IBridgeConfig, ReturnPolicy
from ..devices.base import Device, Op
from ..devices.profiling import SeekProfile


class DiskServiceModel:
    """Tracks ``T`` for one disk and evaluates redirection returns."""

    def __init__(self, profile: SeekProfile, read_bw: float, write_bw: float,
                 stripe_unit: int, config: IBridgeConfig,
                 disk: Device) -> None:
        self.profile = profile
        self.read_bw = read_bw
        self.write_bw = write_bw
        self.stripe_unit = stripe_unit
        self.config = config
        # Configs are frozen, so the policy is decided once.
        self._per_unit = config.return_policy is ReturnPolicy.EFFICIENCY
        # Initialize T to the ideal (streaming) time of one striping
        # unit: an unloaded disk is presumed efficient until observed
        # otherwise.
        self._t = stripe_unit / read_bw
        self.samples = 0
        # Fail-slow visibility: the paper's Eq. 1 averages *measured*
        # service times, so a degraded disk's T rises on its own.  Our
        # samples are profile estimates instead, so they are scaled by
        # the modelled disk's own fail-slow multipliers.
        self.disk = disk

    @property
    def t_value(self) -> float:
        """The current average service time ``T_i``."""
        return self._t

    def sample(self, op: Op, lbn: int, nbytes: int, head: int) -> float:
        """Policy-adjusted sample for a candidate disk service: Eq. 1's
        bracketed term, positioning + transfer estimate."""
        is_write = op is Op.WRITE
        pos = self.profile.positioning(abs(lbn - head), is_write=is_write)
        bw = self.write_bw if is_write else self.read_bw
        disk = self.disk
        raw = pos * disk.latency_mult + (nbytes / bw) * disk.bw_mult
        if self._per_unit:
            # Normalize to the time the disk would spend per striping
            # unit of payload, so tiny requests that consume a full
            # positioning delay register as inefficient.
            return raw * (self.stripe_unit / nbytes)
        return raw

    def observe_disk(self, op: Op, lbn: int, nbytes: int, head: int) -> float:
        """Update ``T`` for a request being served at the disk (Eq. 1)."""
        s = self.sample(op, lbn, nbytes, head)
        self._t = (self.config.ewma_old_weight * self._t
                   + self.config.ewma_new_weight * s)
        self.samples += 1
        return self._t

    def observe_ssd(self) -> float:
        """Eq. 2: a request served at the SSD leaves ``T`` unchanged."""
        return self._t

    def base_return(self, op: Op, lbn: int, nbytes: int, head: int) -> float:
        """``T_i^ret = T_i^disk − T_i^ssd`` for serving at the SSD."""
        s = self.sample(op, lbn, nbytes, head)
        t_disk = (self.config.ewma_old_weight * self._t
                  + self.config.ewma_new_weight * s)
        return t_disk - self._t  # == ewma_new_weight * (s - T)


@dataclass(frozen=True)
class TReport:
    """One server's broadcast T value."""

    server: int
    t_value: float
    time: float


class GlobalTTable:
    """The per-server view of every disk's current ``T``.

    Populated by the metadata server's periodic broadcast; deliberately
    stale by up to one report period, as in the paper.
    """

    def __init__(self) -> None:
        self._table: Dict[int, TReport] = {}

    def update(self, report: TReport) -> None:
        self._table[report.server] = report

    def update_many(self, reports: Iterable[TReport]) -> None:
        for r in reports:
            self.update(r)

    def get(self, server: int) -> Optional[float]:
        rep = self._table.get(server)
        return rep.t_value if rep else None


def fragment_return(base: float, this_server: int, this_t: float,
                    sibling_servers: Iterable[int], n_siblings: int,
                    table: GlobalTTable, enabled: bool = True) -> float:
    """Apply Eq. 3's striping magnification term to a fragment's return.

    If this server's ``T`` is the largest among the disks holding the
    fragment's siblings, the fragment gates its parent request and the
    return grows by ``(T^max − T^sec_max) * n``.

    This server's own ``T`` is always the live ``this_t`` — never its
    (possibly stale) broadcast entry — so ``this_server`` is removed
    from the sibling set before consulting the table: when we are the
    slowest, ``T^max`` is ``this_t`` and ``T^sec_max`` is the maximum
    over the *other* servers.  A stale self-report must neither inflate
    the term (old high value) nor zero it (old value shadowing the true
    second maximum).
    """
    if not enabled or n_siblings <= 0:
        return base
    # One scan of the siblings against the table: only the largest
    # other T matters, so duplicates need no de-duplication.
    reports = table._table
    other_max = None
    for server in sibling_servers:
        if server != this_server:
            report = reports.get(server)
            if report is not None and (other_max is None
                                       or report.t_value > other_max):
                other_max = report.t_value
    if other_max is None:
        # No sibling has a known T yet: we cannot claim to gate anyone.
        return base
    if this_t < other_max:
        # Some sibling's disk is slower; it gates the parent, not us.
        return base
    return base + (this_t - other_max) * n_siblings

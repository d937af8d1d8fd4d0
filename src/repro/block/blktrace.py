"""Block-level dispatch tracing, modelled after ``blktrace``.

The paper uses blktrace to show the *dispatched* request-size
distributions (Figs. 2(c)–(e) and Fig. 5), in units of 512-byte
sectors.  :class:`BlockTracer` records every dispatch the device runner
issues; :meth:`size_histogram` reproduces the figures' data.  It is the
only record of every dispatch: a traced run's ``blk.service`` spans
(:mod:`repro.obs`) carry the dispatches of traced I/Os alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..devices.base import Op
from ..units import to_sectors


@dataclass(frozen=True)
class TraceRecord:
    """One dispatched I/O as blktrace would log it."""

    time: float
    op: Op
    lbn: int
    nbytes: int
    merged: int  # number of original requests merged into this dispatch

    @property
    def sectors(self) -> int:
        return to_sectors(self.nbytes)


class BlockTracer:
    """Records dispatches; answers the size-histogram query."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[TraceRecord] = []

    def record(self, time: float, op: Op, lbn: int, nbytes: int,
               merged: int) -> None:
        if self.enabled:
            self.records.append(TraceRecord(time, op, lbn, nbytes, merged))

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def size_histogram(self, op: Optional[Op] = None) -> Dict[int, int]:
        """{size_in_sectors: dispatch count}, optionally filtered by op."""
        counter: Counter[int] = Counter()
        for rec in self.records:
            if op is None or rec.op is op:
                counter[rec.sectors] += 1
        return dict(sorted(counter.items()))

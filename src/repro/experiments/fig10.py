"""Figure 10: BTIO on disk-only, SSD-only, and iBridge configurations.

The SSD-only system stores the files directly on the SSDs — and still
loses to iBridge, because BTIO's small scattered writes land at random
SSD locations (30 MB/s random-write) while iBridge writes them into its
sequential log (140 MB/s).  This isolates the value of the
log-structured SSD store beyond raw device speed.
"""

from __future__ import annotations

from typing import Sequence

from .common import (DEFAULT_SCALE, ExperimentResult, base_config, measure,
                     scaled_ibridge)
from .fig9 import make_btio


def run(scale: float = DEFAULT_SCALE,
        procs: Sequence[int] = (9, 16, 64, 100),
        steps: int = 10) -> ExperimentResult:
    result = ExperimentResult(
        name="fig10",
        title="Fig 10 — BTIO execution time (s): disk-only / SSD-only / iBridge",
        headers=["nprocs", "disk-only", "ssd-only", "iBridge",
                 "iBridge vs ssd-only %", "ssd-only setup ms/req",
                 "iBridge setup ms/req"],
    )
    disk_cfg = base_config()
    ssd_cfg = base_config().replace(primary_store="ssd")
    ib_cfg = scaled_ibridge(base_config(), scale)

    def ssd_setup_per_request(cluster) -> float:
        """Mean SSD positioning cost per SSD write — the log-structuring
        signal: random in-place writes pay the per-command setup, the
        iBridge log does not."""
        pos = sum(s.ssd.stats.positioning_time for s in cluster.servers)
        n = sum(s.ssd.stats.writes for s in cluster.servers)
        return pos / n * 1000 if n else 0.0

    for np_ in procs:
        disk, _ = measure(disk_cfg, make_btio(np_, scale, steps))
        ssd, ssd_cluster = measure(ssd_cfg, make_btio(np_, scale, steps))
        ib, ib_cluster = measure(ib_cfg, make_btio(np_, scale, steps))
        vs_ssd = ((ssd.makespan - ib.makespan) / ssd.makespan * 100
                  if ssd.makespan else 0)
        ssd_setup = ssd_setup_per_request(ssd_cluster)
        ib_setup = ssd_setup_per_request(ib_cluster)
        result.add_row(
            [np_, round(disk.makespan, 2), round(ssd.makespan, 2),
             round(ib.makespan, 2), round(vs_ssd, 1),
             round(ssd_setup, 4), round(ib_setup, 4)],
            disk=disk.makespan, ssd=ssd.makespan, ibridge=ib.makespan,
            vs_ssd=vs_ssd, ssd_setup=ssd_setup, ib_setup=ib_setup)
    result.notes.append(
        "paper: iBridge beats even the all-SSD system because its "
        "log-structured writes avoid the SSD's random-write penalty")
    return result

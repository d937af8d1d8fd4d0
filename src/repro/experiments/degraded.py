"""Extension experiment: a degraded disk and Eq. 3's sibling term.

Not a paper figure, but a direct test of the mechanism Eq. 3 exists
for: "fragments on a slow disk causing their completed sibling
sub-requests to wait will produce a larger average return value and
have greater SSD space allocated".

One data server gets an aging disk (doubled rotational latency and
seek times), expressed as a whole-run *fail-slow* fault window from
``repro.faults`` — the same mechanism ad-hoc failure studies use, so
the degradation composes with any other plan and shows up in the run's
fault telemetry.  Because a striped request completes only when its
slowest piece does, the degraded server gates *every* multi-server
request.  With the striping-magnification term enabled, that server's
higher broadcast T value boosts the return of its fragments, so its
SSD absorbs more of them; disabling the term removes that
prioritization.
"""

from __future__ import annotations

import dataclasses

from ..config import HDDConfig
from ..devices.base import Op
from ..faults import FaultPlan, fail_slow
from ..units import KiB
from ..workloads.mpi_io_test import MpiIoTest
from .common import (DEFAULT_SCALE, ExperimentResult, base_config, file_bytes,
                     measure, scaled_ibridge)

#: How much slower the degraded disk's mechanics are (CLI:
#: ``--degrade-factor``).
DEGRADE_FACTOR = 2.0


def degraded_hdd(base: HDDConfig, factor: float = DEGRADE_FACTOR) -> HDDConfig:
    """An aging disk as a *config*: slower positioning, same transfer.

    Kept for heterogeneous-hardware studies via ``Cluster``'s
    ``hdd_overrides``; the experiment itself now injects the slowdown
    as a fail-slow fault plan (see :func:`aging_disk_plan`), which
    models the same mechanics degradation on an unchanged config.
    """
    return dataclasses.replace(
        base,
        seek_base=base.seek_base * factor,
        seek_full=base.seek_full * factor,
        rotational_miss=base.rotational_miss * factor,
        write_settle=base.write_settle * factor,
    )


def aging_disk_plan(server: int, factor: float = DEGRADE_FACTOR) -> FaultPlan:
    """A whole-run fail-slow window on one server's disk mechanics."""
    return FaultPlan.single(fail_slow(server, factor),
                            name=f"aging-disk-s{server}-x{factor:g}")


def run(scale: float = DEFAULT_SCALE, nprocs: int = 64,
        degraded_server: int = 3,
        degrade_factor: float = DEGRADE_FACTOR) -> ExperimentResult:
    result = ExperimentResult(
        name="degraded",
        title=(f"Extension — degraded disk (fail-slow x{degrade_factor:g}) "
               f"on one server (65KiB writes, MiB/s)"),
        headers=["system", "throughput", "ssd%", "frag redirects@slow",
                 "frag redirects/other server"],
    )
    size = 65 * KiB
    wl_args = dict(nprocs=nprocs, request_size=size,
                   file_size=file_bytes(scale, nprocs, size), op=Op.WRITE)
    base = base_config()
    plan = aging_disk_plan(degraded_server, degrade_factor)

    # Eq. 3's contribution is evaluated under the *literal* Eq. 1 policy:
    # there the base return of a fragment hovers near zero, so the
    # striping-magnification boost is what pushes the gating fragments
    # on the slow disk over the admission threshold.  (Under the default
    # EFFICIENCY policy every fragment's return is already decisively
    # positive and Eq. 3 cannot change any decision.)
    from ..config import ReturnPolicy
    systems = [
        ("stock", base, None),
        ("iBridge efficiency-policy", scaled_ibridge(base, scale), None),
        ("iBridge literal, Eq.3 on",
         scaled_ibridge(base, scale, return_policy=ReturnPolicy.PAPER), True),
        ("iBridge literal, Eq.3 off",
         scaled_ibridge(base, scale, return_policy=ReturnPolicy.PAPER,
                        use_sibling_term=False), False),
    ]
    for label, cfg, _sib in systems:
        res, cluster = measure(cfg, MpiIoTest(**wl_args), fault_plan=plan)
        if cfg.ibridge.enabled:
            slow = cluster.servers[degraded_server]
            others = [s for s in cluster.servers if s is not slow]
            slow_redir = sum(u.ibridge.stats.ssd_redirected_writes
                             for u in slow.disks)
            other_redir = (sum(u.ibridge.stats.ssd_redirected_writes
                               for s in others for u in s.disks)
                           / max(1, len(others)))
        else:
            slow_redir, other_redir = 0, 0.0
        result.add_row([label, round(res.throughput_mib_s, 1),
                        round(res.ssd_fraction * 100, 1),
                        slow_redir, round(other_redir, 1)],
                       throughput=res.throughput_mib_s,
                       ssd_pct=res.ssd_fraction * 100,
                       slow_redirects=float(slow_redir),
                       other_redirects=other_redir)
    result.notes.append(
        "Eq. 3 raises the return of fragments landing on the disk with "
        "the largest broadcast T; under the literal Eq. 1 policy this is "
        "what pushes the gating fragments over the admission threshold")
    return result

#!/usr/bin/env python3
"""Fault-injection demo: break the cluster on a schedule, watch it heal.

Part 1 runs an unaligned write workload while the only SSD partition a
server has dies mid-run — once forfeiting its dirty log (hard
fail-stop) and once draining it first (graceful removal).  The strict
invariant auditor is on for both: the conservation ledgers account
every forfeited byte, and iBridge degrades to disk-only service until
the replacement SSD is admitted.

Part 2 runs the same workload through a crash of one data server plus
a lossy network window, recovered entirely by the client's
timeout/retry machinery, and prints the per-window fault report.

Run:  python examples/faults_demo.py
"""

from repro import Cluster, ClusterConfig, MpiIoTest, Op, run_workload
from repro.results import fault_report
from repro.config import AuditConfig
from repro.faults import (FaultEvent, FaultKind, FaultPlan, server_outage,
                          ssd_outage)
from repro.units import KiB, MiB


def make_config() -> ClusterConfig:
    cfg = ClusterConfig(num_servers=4,
                        audit=AuditConfig(enabled=True, strict=True))
    return cfg.with_ibridge(ssd_partition=32 * MiB)


def make_workload() -> MpiIoTest:
    return MpiIoTest(nprocs=16, request_size=65 * KiB,
                     file_size=16 * MiB, op=Op.WRITE)


def run_plan(cfg: ClusterConfig, plan):
    cluster = Cluster(cfg, fault_plan=plan)
    result = run_workload(cluster, make_workload())
    return cluster, result


def part_one() -> float:
    print("=== Part 1: SSD dies mid-run (strict audit on) ===")
    cfg = make_config()
    baseline = run_workload(Cluster(cfg), make_workload())
    span = baseline.makespan
    print(f"fault-free: {baseline.throughput_mib_s:.1f} MiB/s, "
          f"{baseline.ssd_fraction * 100:.1f}% of bytes via SSD")
    for policy in ("forfeit", "drain"):
        window = ssd_outage(0, start=span * 0.25, duration=span * 0.5,
                            policy=policy)
        cluster, res = run_plan(cfg, FaultPlan.single(window,
                                                      name=f"ssd-{policy}"))
        rec = res.recovery
        print(f"{policy:>8}: {res.throughput_mib_s:.1f} MiB/s, "
              f"forfeited {rec['forfeited_bytes'] / KiB:.0f} KiB, "
              f"audit ok={cluster.audit.ok}")
    print()
    return span


def part_two(span: float) -> None:
    print("=== Part 2: server crash + lossy network, retry recovers ===")
    # The deadline must clear the congested tail but re-issue well
    # within the crash window; see docs/FAULTS.md on calibration.
    cfg = make_config().with_retry(timeout=span * 0.1, max_retries=10,
                                   backoff_base=span * 0.01,
                                   backoff_cap=span * 0.1)
    plan = FaultPlan(events=(
        server_outage(1, start=span * 0.2, duration=span * 0.15),
        FaultEvent(kind=FaultKind.NET_DROP, start=0.0, duration=span * 0.5,
                   drop_prob=0.05),
    ), name="rough-day")
    cluster, res = run_plan(cfg, plan)
    rec = res.recovery
    print(f"completed at {res.throughput_mib_s:.1f} MiB/s despite "
          f"{int(rec['net_dropped'])} dropped messages and "
          f"{int(rec['server_crashes'])} crash "
          f"({int(rec['timeouts'])} timeouts, "
          f"{int(rec['retries'])} retries, 0 failures)")
    print()
    print(fault_report(res))


def main() -> None:
    span = part_one()
    part_two(span)


if __name__ == "__main__":
    main()

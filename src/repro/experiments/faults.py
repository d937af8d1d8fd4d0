"""Extension experiment: iBridge availability under injected failures.

Not a paper figure; a systems-behaviour study the ``repro.faults``
subsystem enables.  The same unaligned write workload runs under a
series of failure scenarios — SSD fail-stop (hard forfeit and graceful
drain), a data-server crash, a lossy network window, an aging disk —
and the table reports what each costs and what the recovery machinery
(SSD-bypass degraded mode, client timeout/retry, writeback-before-
removal) absorbed.

The fault windows are placed relative to the fault-free makespan, so
the scenarios stay meaningful across ``--scale`` values; RPC retry
timeouts are likewise scaled, since the simulated runs are far shorter
than the hour-scale jobs a real deployment times out against.

Execution shape: one calibration cell (the fault-free run, which fixes
window placement and retry deadlines), then one independent cell per
scenario — all routed through :mod:`repro.experiments.runner`, so
``--jobs N`` fans the scenarios out and ``--jobs 1`` reproduces them
bit-identically in order.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..devices.base import Op
from ..faults import (FaultEvent, FaultKind, FaultPlan, fail_slow,
                      server_outage, ssd_outage)
from ..units import KiB
from ..workloads.mpi_io_test import MpiIoTest
from .common import (DEFAULT_SCALE, ExperimentResult, base_config, file_bytes,
                     measure, scaled_ibridge)
from .runner import cell, sweep

#: Scenario order is the table's row order.
SCENARIOS = ("no faults", "ssd fail-stop, forfeit", "ssd removal, drain",
             "server crash + restart", "10% message loss", "aging disk x3")


def _scenario_plan(label: str, span: float) -> Optional[FaultPlan]:
    """Build the fault plan for one scenario from the calibrated span."""
    if label == "no faults":
        return None
    if label == "ssd fail-stop, forfeit":
        return FaultPlan.single(ssd_outage(0, start=span * 0.25,
                                           duration=span * 0.5),
                                name="x-ssd-forfeit")
    if label == "ssd removal, drain":
        return FaultPlan.single(ssd_outage(0, start=span * 0.25,
                                           duration=span * 0.5,
                                           policy="drain"),
                                name="x-ssd-drain")
    if label == "server crash + restart":
        return FaultPlan.single(server_outage(1, start=span * 0.25,
                                              duration=span * 0.1),
                                name="x-crash")
    if label == "10% message loss":
        return FaultPlan.single(FaultEvent(kind=FaultKind.NET_DROP, start=0.0,
                                           duration=span * 0.5, drop_prob=0.1),
                                name="x-drop")
    if label == "aging disk x3":
        return FaultPlan.single(fail_slow(2, 3.0), name="x-aging")
    raise KeyError(f"unknown fault scenario {label!r}")


def _workload_args(scale: float, nprocs: int) -> dict:
    size = 65 * KiB
    return dict(nprocs=nprocs, request_size=size,
                file_size=file_bytes(scale, nprocs, size), op=Op.WRITE)


def _cell_calibrate(scale: float, nprocs: int) -> Dict[str, float]:
    """Fault-free run fixing window placement and the retry deadline."""
    cfg = scaled_ibridge(base_config(), scale)
    baseline, _ = measure(cfg, MpiIoTest(**_workload_args(scale, nprocs)))
    span = max(baseline.makespan, 1e-3)
    # The deadline must be generous: it has to clear the tail latency
    # of the *degraded* scenarios too (an aging disk triples service
    # times; spurious timeouts duplicate load and snowball), while the
    # attempt budget still outlasts the longest lossy window even for a
    # request issued at its start.
    timeout = max(span * 0.1, 10 * baseline.latency_stats().p99)
    return {"span": span, "timeout": timeout}


def _cell_scenario(scale: float, nprocs: int, scenario: str, span: float,
                   timeout: float) -> Dict[str, float]:
    """Run one failure scenario; returns the row's raw figures."""
    cfg = scaled_ibridge(base_config(), scale)
    cfg = cfg.with_retry(timeout=timeout, max_retries=10,
                         backoff_base=timeout * 0.1, backoff_cap=timeout)
    plan = _scenario_plan(scenario, span)
    res, _cluster = measure(cfg, MpiIoTest(**_workload_args(scale, nprocs)),
                            fault_plan=plan)
    rec = res.recovery
    return {"throughput": res.throughput_mib_s,
            "retries": float(rec.get("retries", 0.0)),
            "forfeited_bytes": float(rec.get("forfeited_bytes", 0.0)),
            "dropped": float(rec.get("net_dropped", 0.0)),
            "ssd_fraction": res.ssd_fraction}


def run(scale: float = DEFAULT_SCALE, nprocs: int = 32) -> ExperimentResult:
    result = ExperimentResult(
        name="faults",
        title="Extension — recovery under injected faults "
              "(65KiB writes, iBridge on, MiB/s)",
        headers=["scenario", "throughput", "slowdown", "retries",
                 "forfeited KiB", "dropped msgs", "ssd%"],
    )
    # Calibrate window placement and RPC timeouts on a fault-free run.
    [calib] = sweep([cell("repro.experiments.faults:_cell_calibrate",
                          scale=scale, nprocs=nprocs)])
    span, timeout = calib["span"], calib["timeout"]

    cells = [cell("repro.experiments.faults:_cell_scenario",
                  scale=scale, nprocs=nprocs, scenario=label, span=span,
                  timeout=timeout)
             for label in SCENARIOS]
    rows = sweep(cells)

    base_tp = None
    for label, row in zip(SCENARIOS, rows):
        tp = row["throughput"]
        if base_tp is None:
            base_tp = tp
        slowdown = base_tp / tp if tp > 0 else float("inf")
        result.add_row(
            [label, round(tp, 1), f"{slowdown:.2f}x",
             int(row["retries"]),
             round(row["forfeited_bytes"] / KiB, 1),
             int(row["dropped"]),
             round(row["ssd_fraction"] * 100, 1)],
            throughput=tp, slowdown=slowdown,
            retries=row["retries"],
            forfeited_bytes=row["forfeited_bytes"],
            dropped=row["dropped"],
            ssd_pct=row["ssd_fraction"] * 100)
    result.notes.append(
        "every scenario completes and drains cleanly: SSD loss degrades "
        "to disk-only service (forfeit loses the dirty log, drain writes "
        "it back first), crashes and message loss are ridden out by "
        "client timeout/retry")
    return result

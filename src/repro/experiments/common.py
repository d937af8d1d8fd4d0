"""Shared infrastructure for the per-table / per-figure experiments.

Every experiment exposes ``run(scale=DEFAULT_SCALE, **overrides) ->
ExperimentResult``.  ``scale`` is the fraction of the paper's 10 GB
working set simulated (the shapes are scale-stable; EXPERIMENTS.md
records results at the documented scale).  Results carry the paper's
reference values next to the measured ones so the comparison is
self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.report import format_table
from ..config import AuditConfig, ClusterConfig, ObsConfig
from ..devices.base import Op
from ..pfs.cluster import Cluster
from ..units import GiB, KiB, MiB
from ..workloads.base import Workload, run_workload

#: Default fraction of the paper's 10 GB dataset (128 MiB) — big enough
#: for stable shapes, small enough for seconds-scale runs.
DEFAULT_SCALE = 1.0 / 80.0

#: The paper's working-set size.
PAPER_FILE_BYTES = 10 * GiB


@dataclass
class ExperimentResult:
    """One experiment's output: a printable table plus raw rows."""

    name: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Raw keyed values for tests/benches ({(row_key, col_key): value}).
    values: Dict[tuple, float] = field(default_factory=dict)

    def add_row(self, row: Sequence[object], **keyed: float) -> None:
        self.rows.append(list(row))
        for key, value in keyed.items():
            self.values[(row[0], key)] = value

    def get(self, row_key: object, col_key: str) -> float:
        return self.values[(row_key, col_key)]

    def __str__(self) -> str:
        out = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


def file_bytes(scale: float, nprocs: int = 1, request_size: int = 64 * KiB,
               min_iterations: int = 4) -> int:
    """Scaled file size, floored so every rank gets min_iterations."""
    base = int(PAPER_FILE_BYTES * scale)
    floor = nprocs * request_size * min_iterations
    return max(base, floor)


#: Process-wide audit default applied by :func:`base_config` — set by
#: the CLI's ``--audit`` flag (or tests) so every experiment in a run
#: is audited without threading a parameter through each ``run()``.
_DEFAULT_AUDIT: Optional[AuditConfig] = None


def set_default_audit(audit: Optional[AuditConfig]) -> None:
    """Install (or clear, with ``None``) the audit config experiments use."""
    global _DEFAULT_AUDIT
    _DEFAULT_AUDIT = audit


#: Process-wide fault-plan default applied by :func:`measure` — set by
#: the CLI's ``--fault-plan`` flag so any experiment can be re-run under
#: an injected failure scenario without code changes.
_DEFAULT_FAULT_PLAN = None


def set_default_fault_plan(plan) -> None:
    """Install (or clear, with ``None``) the fault plan experiments use."""
    global _DEFAULT_FAULT_PLAN
    _DEFAULT_FAULT_PLAN = plan


#: Process-wide observability default applied by :func:`base_config` —
#: set by the CLI's ``--trace-out``/``--metrics-out`` flags so every
#: cluster in a run is traced without per-experiment plumbing.  Like the
#: audit config, it perturbs event schedules (the metrics sampler is a
#: sim process), so it is part of the runner's cache key.
_DEFAULT_OBS: Optional[ObsConfig] = None


def set_default_obs(obs: Optional[ObsConfig]) -> None:
    """Install (or clear, with ``None``) the obs config experiments use."""
    global _DEFAULT_OBS
    _DEFAULT_OBS = obs


#: Warn-once latch for :func:`warn_if_oversubscribed`.
_oversubscribed_warned = False


def warn_if_oversubscribed(jobs: int = 1) -> bool:
    """Warn (once per process) when ``jobs`` worker processes exceed
    ``os.cpu_count()``: the extra ones only add context-switch
    overhead.  Returns True if the warning fired."""
    global _oversubscribed_warned
    import os
    import warnings
    cpus = os.cpu_count() or 1
    if jobs <= cpus or _oversubscribed_warned:
        return False
    _oversubscribed_warned = True
    warnings.warn(
        f"requested {jobs} worker processes on a {cpus}-CPU host; "
        f"runs will timeshare rather than speed up",
        RuntimeWarning, stacklevel=2)
    return True


def base_config(num_servers: int = 8, ibridge: bool = False,
                **overrides) -> ClusterConfig:
    """The paper's testbed configuration (Section III-A)."""
    if _DEFAULT_AUDIT is not None and "audit" not in overrides:
        overrides["audit"] = _DEFAULT_AUDIT
    if _DEFAULT_OBS is not None and "obs" not in overrides:
        overrides["obs"] = _DEFAULT_OBS
    cfg = ClusterConfig(num_servers=num_servers, **overrides)
    if ibridge:
        cfg = cfg.with_ibridge()
    cfg.validate()
    return cfg


def scaled_ibridge(cfg: ClusterConfig, scale: float,
                   **overrides) -> ClusterConfig:
    """Enable iBridge with the SSD partition scaled like the dataset.

    The paper pairs a 10 GB SSD partition with a 10 GB dataset; keeping
    the ratio preserves capacity-pressure behaviour at small scales.
    """
    partition = overrides.pop("ssd_partition",
                              max(8 * MiB, int(10 * GiB * scale)))
    return cfg.with_ibridge(ssd_partition=partition, **overrides)


def measure(cfg: ClusterConfig, workload: Workload, warm_runs: int = 0,
            trace_disk: bool = False, fault_plan=None):
    """Build a fresh cluster, run the workload, return (result, cluster).

    ``fault_plan`` (or, when omitted, the process-wide default installed
    by :func:`set_default_fault_plan`) runs the workload under injected
    faults; the result then carries the fault/recovery telemetry.
    """
    plan = fault_plan if fault_plan is not None else _DEFAULT_FAULT_PLAN
    cluster = Cluster(cfg, trace_disk=trace_disk, fault_plan=plan)
    result = run_workload(cluster, workload, warm_runs=warm_runs)
    return result, cluster


def stock_vs_ibridge(make_workload: Callable[[], Workload], scale: float,
                     num_servers: int = 8, warm_ibridge_reads: bool = False,
                     op: Optional[Op] = None, **ib_overrides):
    """Run the same workload on the stock system and with iBridge.

    Returns (stock_result, ibridge_result).  ``warm_ibridge_reads``
    performs the paper's prior-run warm pass for read workloads (the
    fragments identified in one run are cached for the next).
    """
    stock_cfg = base_config(num_servers=num_servers)
    ib_cfg = scaled_ibridge(base_config(num_servers=num_servers), scale,
                            **ib_overrides)
    stock, _ = measure(stock_cfg, make_workload())
    warm = 1 if (warm_ibridge_reads and (op is None or op is Op.READ)) else 0
    ib, _ = measure(ib_cfg, make_workload(), warm_runs=warm)
    return stock, ib

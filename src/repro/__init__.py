"""repro — a reproduction of *iBridge: Improving Unaligned Parallel File
Access with Solid-State Drives* (Zhang, Liu, Davis, Jiang — IPDPS 2013).

The package simulates a PVFS2-like striped parallel file system with
per-server disk+SSD hybrid storage and implements the paper's iBridge
scheme: client-side fragment identification plus server-side
cost/benefit-driven SSD redirection with dynamic space partitioning.

Quick start::

    from repro import ClusterConfig, Cluster, MpiIoTest, run_workload
    from repro.units import KiB, MiB

    config = ClusterConfig(num_servers=8).with_ibridge()
    cluster = Cluster(config)
    wl = MpiIoTest(nprocs=16, request_size=65 * KiB, file_size=64 * MiB)
    result = run_workload(cluster, wl)
    print(result.throughput_mib_s)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

# First: it imports repro.pfs, which must initialise before repro.audit
# (audit -> core.manager -> pfs -> pfs.cluster -> audit).
from .results import LatencyStats, RunResult
from .audit import AuditRuntime
from .config import (AuditConfig, ClusterConfig, HDDConfig, IBridgeConfig,
                     NetworkConfig, ReturnPolicy, SchedulerConfig,
                     ServerConfig, SSDConfig)
from .devices.base import Op
from .pfs import Cluster, StripeLayout
from .workloads import (BTIO, IorMpiIo, MpiIoTest, TraceReplay, Workload,
                        classify_trace, run_workload, synthesize_trace)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "ClusterConfig",
    "HDDConfig",
    "SSDConfig",
    "SchedulerConfig",
    "NetworkConfig",
    "ServerConfig",
    "IBridgeConfig",
    "ReturnPolicy",
    "AuditConfig",
    # auditing
    "AuditRuntime",
    # system
    "Cluster",
    "StripeLayout",
    "Op",
    # workloads
    "Workload",
    "run_workload",
    "MpiIoTest",
    "IorMpiIo",
    "BTIO",
    "TraceReplay",
    "synthesize_trace",
    "classify_trace",
    # results
    "RunResult",
    "LatencyStats",
]

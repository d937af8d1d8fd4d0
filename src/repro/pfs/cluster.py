"""Cluster wiring: build the whole simulated I/O system from a config.

A :class:`Cluster` owns the environment, network, metadata server, data
servers (each with disk + SSD + optional iBridge), and a client per
compute node.  It also provides file creation (with contiguous
preallocation of each server's share, matching a freshly-written
benchmark file) and the end-of-run drain that the paper's methodology
requires (dirty data written back before the clock stops).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..audit import AuditRuntime
from ..config import ClusterConfig
from ..core.service_model import GlobalTTable
from ..devices import HardDisk
from ..devices.profiling import SeekProfile, profile_device
from ..errors import ConfigError
from ..net import Network
from ..sim import Environment
from .client import PFSClient
from .layout import StripeLayout
from .messages import ParentRequest
from .metadata import MetadataServer
from .server import DataServer

#: Seek profiles are deterministic per HDD config, so cache them — the
#: offline profiling step is expensive relative to small experiments.
_profile_cache: Dict[tuple, SeekProfile] = {}


def _profile_for(config: ClusterConfig) -> SeekProfile:
    key = (config.hdd.capacity, config.hdd.seek_base, config.hdd.seek_full,
           config.hdd.rotational_miss, config.hdd.write_settle)
    profile = _profile_cache.get(key)
    if profile is None:
        profile = profile_device(HardDisk(config.hdd))
        _profile_cache[key] = profile
    return profile


class Cluster:
    """The simulated parallel I/O system."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 trace_disk: bool = False,
                 hdd_overrides: Optional[Dict[int, object]] = None,
                 fault_plan=None) -> None:
        """Build the cluster.

        ``hdd_overrides`` maps a server id to an :class:`HDDConfig` used
        for that server's disk(s) instead of ``config.hdd`` — for
        heterogeneous/degraded-hardware studies (one aging disk gates
        every striped request; see ``repro.experiments.degraded``).

        ``fault_plan`` (a :class:`repro.faults.FaultPlan`) installs a
        fault injector over the finished cluster; the injector is
        exposed as :attr:`faults`.
        """
        self.config = config or ClusterConfig()
        self.config.validate()
        self.env = Environment()
        self.layout = StripeLayout(self.config.stripe_unit,
                                   self.config.num_servers)
        self.network = Network(self.env, self.config.network)
        self.mds = MetadataServer(self.env, self.config, self.network)
        overrides = hdd_overrides or {}
        for hdd_cfg in overrides.values():
            hdd_cfg.validate()
        # One audit runtime shared by all servers: one watchdog sees
        # every queue, one trace orders events across the cluster.
        self.audit: Optional[AuditRuntime] = None
        if self.config.audit.enabled:
            self.audit = AuditRuntime(self.env, self.config.audit)
        # One shared T table object per server (each server keeps its
        # own view; the MDS broadcast updates them all).
        self.servers: List[DataServer] = []
        for i in range(self.config.num_servers):
            server_cfg = self.config
            if i in overrides:
                import dataclasses
                server_cfg = dataclasses.replace(self.config,
                                                 hdd=overrides[i])
            self.servers.append(
                DataServer(self.env, i, server_cfg,
                           _profile_for(server_cfg),
                           t_table=GlobalTTable(), trace_disk=trace_disk,
                           audit=self.audit))
        self.mds.bind_servers(self.servers)
        # Fleet GC coordination across the per-server SSD array: the
        # "sync"/"stagger" policies need a view of every drive, so the
        # coordinator lives here rather than in any one server.
        self.gc_coordinator = None
        if (self.config.ssd.ftl_enabled
                and self.config.ssd.gc_policy != "unsync"):
            from ..devices.ftl import GCCoordinator
            self.gc_coordinator = GCCoordinator(
                self.env, self.config.ssd.gc_policy,
                self.config.ssd.gc_stagger_slot)
            for server in self.servers:
                self.gc_coordinator.register(server.ssd)
        self._clients: Dict[int, PFSClient] = {}
        self.requests: List[ParentRequest] = []
        # Observability: one tracer + metrics registry for the whole
        # cluster, attached to every instrumented component (same
        # shared-runtime shape as the audit layer above).
        self.obs = None
        if self.config.obs.enabled:
            from ..obs.runtime import ObsRuntime
            self.obs = ObsRuntime(self.env, self.config.obs)
            self.obs.wire_cluster(self)
        self.faults = None
        if fault_plan is not None and len(fault_plan):
            from ..faults import FaultInjector
            self.faults = FaultInjector(self, fault_plan,
                                        audit=self.audit).install()
            if self.obs is not None:
                # Fault begin/end records double as timeline marks.
                self.obs.attach_faults(self.faults)

    # ------------------------------------------------------------- clients
    def client(self, client_id: int = 0) -> PFSClient:
        """Get (or create) the client for compute node ``client_id``."""
        cl = self._clients.get(client_id)
        if cl is None:
            cl = PFSClient(self.env, client_id, self.config, self.layout,
                           self.servers, self.network, audit=self.audit)
            cl.collector = self.requests
            if self.obs is not None:
                self.obs.wire_client(cl)
            self._clients[client_id] = cl
        return cl

    # ------------------------------------------------------------- files
    def create_file(self, nbytes: int, preallocate: bool = True) -> int:
        """Create a striped file; optionally lay it out on the servers.

        Preallocation models a file that already exists on disk (the
        paper's pre-written 10 GB benchmark files): each server's share
        is contiguous in its local store.
        """
        if nbytes <= 0:
            raise ConfigError(f"file size must be positive, got {nbytes}")
        handle = self.mds.create_handle()
        if preallocate:
            for server in self.servers:
                share = self.layout.total_local_bytes(server.id, nbytes)
                server.preallocate(handle, share)
        return handle

    # ------------------------------------------------------------- lifecycle
    def drain(self) -> None:
        """Run the simulation until all queues are quiet and all dirty
        SSD data has been written back to the disks."""
        done = []
        for server in self.servers:
            proc = self.env.process(server.drain(),
                                    name=f"{server.name}-drain")
            done.append(proc)
        self.env.run(until=self.env.all_of(done))
        if self.audit is not None:
            self.audit.final_check()

    def shutdown(self) -> None:
        """Stop periodic daemons so ``env.run()`` can terminate."""
        for server in self.servers:
            if server.ibridge is not None:
                server.ibridge.shutdown()
        if self.audit is not None:
            self.audit.stop()
        if self.obs is not None:
            self.obs.stop()

    # ------------------------------------------------------------- stats
    @property
    def total_bytes_moved(self) -> int:
        return sum(s.stats.bytes_read + s.stats.bytes_written
                   for s in self.servers)

    def ibridge_stats(self):
        """Aggregated iBridge counters across servers (None if disabled)."""
        if not self.config.ibridge.enabled:
            return None
        from ..core.manager import IBridgeStats
        agg = IBridgeStats()
        for server in self.servers:
            st = server.ibridge.stats
            for field_name in vars(st):
                setattr(agg, field_name,
                        getattr(agg, field_name) + getattr(st, field_name))
        return agg

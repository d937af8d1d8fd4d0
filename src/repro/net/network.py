"""Interconnect model.

The paper's testbed uses dual-rail 4X QDR InfiniBand — fast enough that
the network is never the bottleneck, but every PVFS2 message still pays
a fixed software/latency cost.  We model each endpoint with an egress
and an ingress NIC of finite bandwidth (capacity-1 resources, so
concurrent messages at one endpoint serialize their wire time) plus a
per-message overhead and propagation latency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..config import NetworkConfig
from ..sim import Environment, Event, Resource


@dataclass
class NetworkStats:
    """Aggregate transfer counters."""

    messages: int = 0
    bytes: int = 0
    wire_time: float = 0.0
    #: Messages lost to an active drop-fault window (never delivered).
    dropped: int = 0
    #: Accumulated extra latency charged by delay-fault windows.
    fault_delay_time: float = 0.0


_fault_ids = itertools.count(1)


@dataclass
class NetFault:
    """One active network fault window (installed by the injector).

    ``endpoints`` limits the fault to messages whose source *or*
    destination is in the set; ``None`` degrades the whole fabric.
    Multiple overlapping windows stack: delays add, drop probabilities
    combine independently.
    """

    delay: float = 0.0
    drop_prob: float = 0.0
    endpoints: Optional[Set[str]] = None
    #: Deterministic RNG for drop decisions (a :mod:`repro.util.rng`
    #: substream; required when ``drop_prob > 0``).
    rng: object = None
    id: int = field(default_factory=lambda: next(_fault_ids))

    def applies(self, src: str, dst: str) -> bool:
        return (self.endpoints is None or src in self.endpoints
                or dst in self.endpoints)


class Network:
    """Message fabric connecting clients, data servers and the MDS."""

    def __init__(self, env: Environment, config: NetworkConfig | None = None) -> None:
        self.env = env
        self.config = config or NetworkConfig()
        self.config.validate()
        self._egress: Dict[str, Resource] = {}
        self._ingress: Dict[str, Resource] = {}
        self.stats = NetworkStats()
        self._faults: List[NetFault] = []
        #: Observability tracer (:class:`repro.obs.span.Tracer`); wired
        #: by the cluster's ObsRuntime, None on untraced runs.
        self.obs = None

    # ------------------------------------------------------------- faults
    def add_fault(self, fault: NetFault) -> NetFault:
        """Activate a fault window (returned so it can be removed)."""
        self._faults.append(fault)
        return fault

    def remove_fault(self, fault: NetFault) -> None:
        """Deactivate a fault window (idempotent)."""
        try:
            self._faults.remove(fault)
        except ValueError:
            pass

    @property
    def faults_active(self) -> int:
        return len(self._faults)

    def _fault_effects(self, src: str, dst: str):
        """(extra_delay, dropped?) under the currently active windows."""
        delay = 0.0
        dropped = False
        for fault in self._faults:
            if not fault.applies(src, dst):
                continue
            delay += fault.delay
            if (not dropped and fault.drop_prob > 0.0 and fault.rng is not None
                    and fault.rng.random() < fault.drop_prob):
                dropped = True
        return delay, dropped

    def _nic(self, table: Dict[str, Resource], endpoint: str) -> Resource:
        nic = table.get(endpoint)
        if nic is None:
            nic = Resource(self.env, capacity=1)
            table[endpoint] = nic
        return nic

    def send(self, src: str, dst: str, nbytes: int = 0,
             obs_parent=None) -> Event:
        """Deliver a message; the returned event fires at delivery time.

        ``nbytes`` is payload size; control messages pass 0 and still
        pay overhead + latency.  ``obs_parent`` (a span) traces the
        message as a network span from send to delivery.
        """
        done = self.env.event()
        span = None
        obs = self.obs
        if obs is not None and obs_parent is not None:
            span = obs.start("net.msg", "network", obs_parent.trace_id,
                             self.env.now, parent=obs_parent, src=src,
                             dst=dst, nbytes=int(nbytes))
        self.env.spawn(self._transfer(src, dst, int(nbytes), done, span),
                       name=f"net:{src}->{dst}")
        return done

    def send_local_leg(self, src: str, dst: str, nbytes: int = 0) -> Event:
        """The *sender-side half* of a cross-shard message.

        Used by :mod:`repro.sim.parallel` when ``dst`` lives on another
        shard: the message pays its software overhead, fault effects,
        and egress wire time here, and the returned event fires at the
        local *departure* instant with value ``True`` (or ``False`` if a
        drop-fault window ate the message — the record must then not be
        posted to the mailbox).  The propagation latency is paid on the
        receiving shard (arrival = departure + latency); the remote
        ingress NIC is not modelled — the documented fidelity loss of
        the sharded network boundary (DESIGN.md §14).
        """
        done = self.env.event()
        self.env.spawn(self._local_leg(src, dst, int(nbytes), done),
                       name=f"net:{src}=>{dst}")
        return done

    def _local_leg(self, src: str, dst: str, nbytes: int, done: Event):
        env = self.env
        cfg = self.config
        yield env.timeout(cfg.message_overhead)
        if self._faults:
            extra_delay, dropped = self._fault_effects(src, dst)
            if dropped:
                self.stats.dropped += 1
                done.succeed(False)
                return
            if extra_delay > 0.0:
                self.stats.fault_delay_time += extra_delay
                yield env.timeout(extra_delay)
        wire = nbytes / cfg.bandwidth
        if nbytes > 0:
            eg = self._nic(self._egress, src).request()
            yield eg
            yield env.timeout(wire)
            self._nic(self._egress, src).release(eg)
        self.stats.messages += 1
        self.stats.bytes += nbytes
        self.stats.wire_time += wire
        done.succeed(True)

    def _transfer(self, src: str, dst: str, nbytes: int, done: Event,
                  span=None):
        env = self.env
        cfg = self.config
        yield env.timeout(cfg.message_overhead)
        if self._faults:
            extra_delay, dropped = self._fault_effects(src, dst)
            if dropped:
                # The message is lost: ``done`` never fires.  Recovery
                # is the sender's job (client timeout/retry).
                self.stats.dropped += 1
                if span is not None:
                    span.annotate(dropped=True)
                    self.obs.finish(span, env.now)
                return
            if extra_delay > 0.0:
                self.stats.fault_delay_time += extra_delay
                yield env.timeout(extra_delay)
        wire = nbytes / cfg.bandwidth
        if nbytes > 0:
            # Hold both NICs for the wire time: concurrent transfers at
            # an endpoint share its link serially.
            eg = self._nic(self._egress, src).request()
            yield eg
            ing = self._nic(self._ingress, dst).request()
            yield ing
            yield env.timeout(wire)
            self._nic(self._ingress, dst).release(ing)
            self._nic(self._egress, src).release(eg)
        yield env.timeout(cfg.latency)
        self.stats.messages += 1
        self.stats.bytes += nbytes
        self.stats.wire_time += wire
        if span is not None and self.obs is not None:
            self.obs.finish(span, env.now)
        done.succeed()

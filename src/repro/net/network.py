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
from ..errors import FaultError
from ..sim import Chain, Environment, Event, Resource


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
        if fault.drop_prob > 0.0 and fault.rng is None:
            raise FaultError(
                f"net fault with drop_prob={fault.drop_prob} needs an rng "
                f"to draw drops from")
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
            if (not dropped and fault.drop_prob > 0.0
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
        message as a network span from send to delivery.  A message
        lost to a drop-fault window never fires its event: recovery is
        the sender's job (client timeout/retry).
        """
        done = self.env.event()
        span = None
        obs = self.obs
        if obs is not None and obs_parent is not None:
            span = obs.start("net.msg", "network", obs_parent.trace_id,
                             self.env.now, parent=obs_parent, src=src,
                             dst=dst, nbytes=int(nbytes))
        _Transfer(self, src, dst, int(nbytes), done, span)
        return done


class _Transfer(Chain):
    """One message, as a callback chain: software overhead, fault
    effects, both NICs held for the wire time, propagation latency."""

    __slots__ = ("net", "src", "dst", "nbytes", "done", "span", "egress",
                 "ingress")

    def __init__(self, net: Network, src: str, dst: str, nbytes: int,
                 done: Event, span) -> None:
        self.env = net.env
        self.net = net
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.done = done
        self.span = span
        self._start(self._begin)

    def _begin(self, _event: Event) -> None:
        self.env.timeout(self.net.config.message_overhead).callbacks.append(
            self._faults)

    def _faults(self, _event: Event) -> None:
        net = self.net
        if net._faults:
            extra_delay, dropped = net._fault_effects(self.src, self.dst)
            if dropped:
                # The message is lost; ``done`` never fires.
                net.stats.dropped += 1
                span = self.span
                if span is not None:
                    span.annotate(dropped=True)
                    net.obs.finish(span, self.env.now)
                self._end()
                return
            if extra_delay > 0.0:
                net.stats.fault_delay_time += extra_delay
                self.env.timeout(extra_delay).callbacks.append(self._wire)
                return
        self._wire(None)

    def _wire(self, _event) -> None:
        if self.nbytes > 0:
            # Hold both NICs for the wire time: concurrent transfers at
            # an endpoint share its link serially.
            net = self.net
            self.egress = net._nic(net._egress, self.src).request()
            self.egress.callbacks.append(self._egress_held)
        else:
            self._on_wire(None)

    def _egress_held(self, _event: Event) -> None:
        net = self.net
        self.ingress = net._nic(net._ingress, self.dst).request()
        self.ingress.callbacks.append(self._ingress_held)

    def _ingress_held(self, _event: Event) -> None:
        self.env.timeout(self.nbytes / self.net.config.bandwidth
                         ).callbacks.append(self._wired)

    def _wired(self, _event: Event) -> None:
        self.ingress.resource.release(self.ingress)
        self.egress.resource.release(self.egress)
        self._on_wire(None)

    def _on_wire(self, _event) -> None:
        self.env.timeout(self.net.config.latency).callbacks.append(
            self._delivered)

    def _delivered(self, _event) -> None:
        net = self.net
        stats = net.stats
        nbytes = self.nbytes
        stats.messages += 1
        stats.bytes += nbytes
        stats.wire_time += nbytes / net.config.bandwidth
        if self.span is not None and net.obs is not None:
            net.obs.finish(self.span, self.env.now)
        self.done.succeed()
        self._end()

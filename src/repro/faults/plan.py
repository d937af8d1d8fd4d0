"""Declarative fault plans: what breaks, where, when, and how badly.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` windows
scheduled on the *simulated* clock.  Plans are plain data — dataclasses
round-trippable through dicts, JSON, and (when PyYAML is installed)
YAML — so a failing scenario can be checked into a repo and replayed
bit-identically: all stochastic behaviour a plan triggers (network
message drops) draws from :func:`repro.util.rng.rng_stream` substreams
derived from the cluster seed plus the plan name, never from global
randomness.

Event taxonomy (see docs/FAULTS.md for recovery semantics):

========================  ====================================================
``device_slow``           Fail-slow window on one disk (or a server's SSD):
                          positioning/latency and transfer/bandwidth
                          multipliers set on the device itself.  iBridge's
                          service model reads the same multipliers, as the
                          paper's measured EWMA would see them.
``device_fail``           Fail-stop window on one disk: its block queue is
                          paused; pending and new requests wait for recovery.
``ssd_fail``              SSD fail-stop on one server.  iBridge enters
                          SSD-bypass degraded mode: the dirty log is drained
                          (``policy="drain"``, graceful removal) or forfeited
                          (``policy="forfeit"``, hard failure), all traffic is
                          routed to the disks, and the cache is re-admitted
                          once the (replacement) SSD returns.
``net_delay``             Every message touching the target endpoints pays an
                          extra fixed delay.
``net_drop``              Messages touching the target endpoints are dropped
                          with probability ``drop_prob`` (deterministic RNG
                          substream); client retry recovers.
``server_crash``          Data-server crash: replies in flight are lost and
                          new requests are ignored until the restart at the
                          window end.  Client timeout/retry recovers.
``gc_storm``              SSD garbage-collection storm on one server's drive
                          — or, with ``server=None``, a *correlated* storm on
                          every drive in the fleet at once (firmware-epoch /
                          synchronized-wearout behaviour).  Every command on
                          an affected drive stalls one ``gc_slice`` and reads
                          pay the GC jitter term; works with or without the
                          FTL model enabled.  Storm windows nest and compose
                          with other fault kinds.
========================  ====================================================
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..errors import FaultError


class FaultKind(str, Enum):
    """The supported fault classes."""

    DEVICE_SLOW = "device_slow"
    DEVICE_FAIL = "device_fail"
    SSD_FAIL = "ssd_fail"
    NET_DELAY = "net_delay"
    NET_DROP = "net_drop"
    SERVER_CRASH = "server_crash"
    GC_STORM = "gc_storm"


#: Events with ``duration=None`` never revert (whole-run faults).
@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault window."""

    kind: FaultKind
    #: Simulated start time (seconds) relative to injector installation.
    start: float = 0.0
    #: Window length; ``None`` means the fault lasts to the end of run.
    duration: Optional[float] = None
    #: Target data server id (``None`` = all servers, where sensible).
    server: Optional[int] = None
    #: Disk index within the server (device_slow / device_fail).
    disk: int = 0
    #: device_slow: multiplier on positioning / per-command latency.
    latency_mult: float = 1.0
    #: device_slow: multiplier on transfer time (inverse bandwidth).
    bw_mult: float = 1.0
    #: device_slow targets "hdd" (default) or "ssd".
    device: str = "hdd"
    #: net_delay: extra one-way delay per message (seconds).
    delay: float = 0.0
    #: net_drop: per-message drop probability.
    drop_prob: float = 0.0
    #: ssd_fail: "forfeit" (hard fail-stop, dirty bytes lost) or
    #: "drain" (graceful removal, dirty log written back first).
    policy: str = "forfeit"

    def validate(self) -> None:
        if self.start < 0:
            raise FaultError(f"fault start must be non-negative, got {self.start}")
        if self.duration is not None and self.duration <= 0:
            raise FaultError(f"fault duration must be positive, got {self.duration}")
        if self.kind in (FaultKind.DEVICE_SLOW, FaultKind.DEVICE_FAIL,
                         FaultKind.SSD_FAIL, FaultKind.SERVER_CRASH):
            if self.server is None:
                raise FaultError(f"{self.kind.value} needs a target server")
        if self.kind in (FaultKind.DEVICE_FAIL, FaultKind.SERVER_CRASH,
                         FaultKind.SSD_FAIL) and self.duration is None:
            raise FaultError(
                f"{self.kind.value} needs a finite duration: an unrecovered "
                f"fail-stop can never drain at end of run")
        if self.kind is FaultKind.DEVICE_SLOW:
            if self.latency_mult < 1.0 or self.bw_mult < 1.0:
                raise FaultError("fail-slow multipliers must be >= 1")
            if self.latency_mult == 1.0 and self.bw_mult == 1.0:
                raise FaultError("device_slow with both multipliers at 1 "
                                 "is a no-op")
            if self.device not in ("hdd", "ssd"):
                raise FaultError(f"unknown device {self.device!r}")
        if self.kind is FaultKind.NET_DELAY and self.delay <= 0:
            raise FaultError("net_delay needs a positive delay")
        if self.kind is FaultKind.NET_DROP:
            if not 0.0 < self.drop_prob <= 1.0:
                raise FaultError("net_drop needs drop_prob in (0, 1]")
        elif self.drop_prob != 0.0:
            # Only a net_drop window gets a drop RNG: anywhere else the
            # probability would be logged but never drop anything.
            raise FaultError(
                f"drop_prob is a net_drop field; {self.kind.value} "
                f"must leave it at 0, got {self.drop_prob}")
        if self.kind is FaultKind.SSD_FAIL and self.policy not in ("forfeit",
                                                                   "drain"):
            raise FaultError(f"unknown ssd_fail policy {self.policy!r}")
        if self.kind is FaultKind.GC_STORM and self.duration is None:
            raise FaultError(
                "gc_storm needs a finite duration: an unending storm makes "
                "every drain estimate meaningless")
        if self.disk < 0:
            raise FaultError("disk index must be non-negative")

    @property
    def end(self) -> Optional[float]:
        """Window end time, or ``None`` for whole-run faults."""
        if self.duration is None:
            return None
        return self.start + self.duration

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value}
        for f in dataclasses.fields(self):
            if f.name == "kind":
                continue
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        data = dict(data)
        try:
            kind = FaultKind(data.pop("kind"))
        except (KeyError, ValueError) as exc:
            raise FaultError(f"fault event needs a valid kind: {exc}") from None
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise FaultError(f"unknown fault event fields: {sorted(unknown)}")
        event = cls(kind=kind, **data)
        event.validate()
        return event


#: Fault kinds whose windows may NOT overlap on the same target: their
#: begin/revert actions are not composable (a second slowdown
#: overwrites the device's multipliers and the first revert then resets
#: them to 1.0 while the second window is still open; a second
#: ``pause`` on an already-paused queue resumes too early at the first
#: window end; crash/ssd-fail transitions are explicitly one-at-a-time).
#: Network windows are excluded — each installs its own independent
#: ``NetFault`` and stacking them is well-defined.
_EXCLUSIVE_KINDS = frozenset({FaultKind.DEVICE_SLOW, FaultKind.DEVICE_FAIL,
                              FaultKind.SSD_FAIL, FaultKind.SERVER_CRASH})


def _target_key(event: FaultEvent) -> Optional[tuple]:
    """Exclusion-group key for overlap checking (None = no exclusion)."""
    if event.kind not in _EXCLUSIVE_KINDS:
        return None
    if event.kind is FaultKind.SERVER_CRASH:
        return ("server", event.server)
    if event.kind is FaultKind.SSD_FAIL:
        # The SSD fail-stop and a device fault aimed at the SSD both
        # manipulate the same queue/device; they share one group.
        return ("ssd", event.server)
    if event.device == "ssd":
        return ("ssd", event.server)
    return ("hdd", event.server, event.disk)


def _windows_overlap(a: FaultEvent, b: FaultEvent) -> bool:
    a_end = float("inf") if a.end is None else a.end
    b_end = float("inf") if b.end is None else b.end
    return a.start < b_end and b.start < a_end


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated set of fault events for one run."""

    events: tuple = ()
    #: Used (with the cluster seed) to derive the RNG substreams for
    #: stochastic faults, so the same plan replays bit-identically.
    name: str = "fault-plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def validate(self) -> None:
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise FaultError(f"not a FaultEvent: {event!r}")
            event.validate()
        # Same-target windows of non-composable kinds must not overlap.
        # Before this check the overlap semantics were implicit in
        # FaultInjector._drive (last writer won, cleanups raced); the
        # plan generator (repro.chaos) relies on rejection to keep its
        # sampled plans well-defined.
        by_target: dict = {}
        for event in self.events:
            key = _target_key(event)
            if key is None:
                continue
            for other in by_target.setdefault(key, []):
                if _windows_overlap(event, other):
                    raise FaultError(
                        f"plan {self.name!r}: overlapping {event.kind.value} "
                        f"window [{event.start}, {event.end}) collides with "
                        f"{other.kind.value} [{other.start}, {other.end}) on "
                        f"the same target {key}; same-target fail/slow "
                        f"windows must be disjoint (merge or re-place them)")
            by_target[key].append(event)

    def check_targets(self, num_servers: int,
                      disks_per_server: Optional[int] = None) -> None:
        """Bound-check event targets against a cluster's shape.

        Server ids must name one of ``num_servers`` servers; with
        ``disks_per_server`` given, disk indices of device faults aimed
        at a disk must name one of them too.
        """
        for i, ev in enumerate(self.events):
            if ev.server is not None and not 0 <= ev.server < num_servers:
                raise FaultError(
                    f"event[{i}] {ev.kind.value} targets server {ev.server}; "
                    f"cluster has {num_servers}")
            if (disks_per_server is not None
                    and ev.kind in (FaultKind.DEVICE_SLOW,
                                    FaultKind.DEVICE_FAIL)
                    and ev.device == "hdd" and ev.disk >= disks_per_server):
                raise FaultError(
                    f"event[{i}] {ev.kind.value} targets disk {ev.disk}; "
                    f"servers have {disks_per_server}")

    def horizon(self) -> float:
        """Latest finite window end (0.0 for an empty plan).

        Whole-run events (``duration=None``) contribute only their start
        time — they never revert, so there is nothing to wait for.
        """
        out = 0.0
        for event in self.events:
            out = max(out, event.start if event.end is None else event.end)
        return out

    @classmethod
    def merge(cls, *plans: "FaultPlan", name: Optional[str] = None) -> "FaultPlan":
        """Combine several plans into one validated plan.

        Events keep plan order (first plan's events first); the merged
        plan is re-validated, so same-target overlaps *across* the
        source plans are rejected just like overlaps within one plan.
        The chaos generator builds per-category sub-plans and merges
        them through this helper.
        """
        events: List[FaultEvent] = []
        names: List[str] = []
        for plan in plans:
            if not isinstance(plan, FaultPlan):
                raise FaultError(f"merge() takes FaultPlans, got {plan!r}")
            events.extend(plan.events)
            names.append(plan.name)
        merged = cls(events=tuple(events),
                     name=name if name is not None else "+".join(names) or
                     "fault-plan")
        merged.validate()
        return merged

    # ------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        return {"name": self.name,
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict) or "events" not in data:
            raise FaultError("a fault plan is a mapping with an 'events' list")
        events = [FaultEvent.from_dict(e) for e in data["events"]]
        plan = cls(events=tuple(events), name=data.get("name", "fault-plan"))
        plan.validate()
        return plan

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON (or, with PyYAML installed, YAML) file."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if path.endswith((".yml", ".yaml")):
            try:
                import yaml  # type: ignore
            except ImportError as exc:  # pragma: no cover - env dependent
                raise FaultError(
                    "YAML fault plans need PyYAML; use JSON instead") from exc
            data = yaml.safe_load(text)
        else:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise FaultError(f"invalid fault plan in {path}: {exc}") from None
        return cls.from_dict(data)

    # --------------------------------------------------------- constructors
    @classmethod
    def single(cls, event: FaultEvent, name: str = "fault-plan") -> "FaultPlan":
        plan = cls(events=(event,), name=name)
        plan.validate()
        return plan


@dataclass
class FaultRecord:
    """One applied/reverted fault transition (the injector's own log).

    Kept independently of the audit trace so replay-determinism can be
    asserted even on unaudited runs.
    """

    time: float
    phase: str          # "begin" | "end"
    event: FaultEvent
    detail: dict = field(default_factory=dict)
    #: Position of ``event`` in its plan, so a record names its event
    #: unambiguously even when two plan events are equal (it is carried
    #: into ``result.fault_events`` and the chaos fault log).
    index: int = -1

    def signature(self) -> tuple:
        """Hashable identity used by determinism tests."""
        return (round(self.time, 9), self.phase, self.event.to_dict(),
                tuple(sorted(self.detail.items())))


def fail_slow(server: int, factor: float, start: float = 0.0,
              duration: Optional[float] = None, disk: int = 0,
              bw_mult: float = 1.0, device: str = "hdd") -> FaultEvent:
    """Convenience: a positioning-latency fail-slow window.

    ``factor`` multiplies positioning (seek/rotation/settle) time — the
    signature of an aging spindle; transfer bandwidth is scaled
    separately via ``bw_mult``.
    """
    return FaultEvent(kind=FaultKind.DEVICE_SLOW, server=server, disk=disk,
                      start=start, duration=duration, latency_mult=factor,
                      bw_mult=bw_mult, device=device)


def ssd_outage(server: int, start: float, duration: float,
               policy: str = "forfeit") -> FaultEvent:
    """Convenience: an SSD fail-stop window with recovery at the end."""
    return FaultEvent(kind=FaultKind.SSD_FAIL, server=server, start=start,
                      duration=duration, policy=policy)


def gc_storm(start: float, duration: float,
             server: Optional[int] = None) -> FaultEvent:
    """Convenience: a GC storm on one drive, or — ``server=None`` — a
    correlated storm across every drive in the fleet at once."""
    return FaultEvent(kind=FaultKind.GC_STORM, server=server, start=start,
                      duration=duration)


def server_outage(server: int, start: float, duration: float) -> FaultEvent:
    """Convenience: a data-server crash window (restart at the end)."""
    return FaultEvent(kind=FaultKind.SERVER_CRASH, server=server, start=start,
                      duration=duration)


ALL_KINDS: List[str] = [k.value for k in FaultKind]

"""Deterministic discrete-event simulation engine.

A minimal SimPy-flavoured kernel: generator-based processes (and
hand-written callback chains for the hottest paths), a binary
heap of timestamped events with deterministic tie-breaking, counted
resources, stores, and barriers.  Everything else in the reproduction
(devices, schedulers, servers, MPI ranks) is built as processes on top
of this engine.
"""

from .core import Chain, Environment, Process
from .events import AllOf, AnyOf, Event, Timeout
from .resources import Resource, Store
from .sync import Barrier

__all__ = [
    "Environment",
    "Process",
    "Chain",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
    "Barrier",
]

"""Deterministic fault injection and failure recovery (``repro.faults``).

Declarative :class:`FaultPlan` windows — device fail-slow/fail-stop,
SSD failure with dirty-log drain or forfeit, network delay/drop, data
server crash/restart — scheduled on the simulated clock by a
:class:`FaultInjector` and recovered by the stack under test: iBridge's
SSD-bypass degraded mode and the PFS client's timeout/retry.  All
stochastic behaviour draws from seeded RNG substreams, so a plan
replays bit-identically.
"""

from .health import restoration_failures
from .injector import FaultInjector
from .plan import (ALL_KINDS, FaultEvent, FaultKind, FaultPlan, FaultRecord,
                   fail_slow, gc_storm, server_outage, ssd_outage)

__all__ = [
    "ALL_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "fail_slow",
    "gc_storm",
    "restoration_failures",
    "server_outage",
    "ssd_outage",
]

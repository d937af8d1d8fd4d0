"""The per-run audit runtime: trace sink + auditors + watchdog.

One :class:`AuditRuntime` exists per cluster (or per standalone
:class:`~repro.pfs.server.DataServer` in unit tests).  It owns the
shared :class:`~repro.audit.trace.EventTrace`, hands each iBridge
manager a :class:`~repro.audit.invariants.ManagerAuditor`, registers
every block queue with the livelock watchdog, and collects violations.

In strict mode (the default) the first violation raises
:class:`~repro.errors.AuditError` at the site of the inconsistency — the
most useful stack trace a simulation bug can produce.  In non-strict
mode violations accumulate on :attr:`violations` for post-run review.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..config import AuditConfig
from ..errors import AuditError
from .trace import EventTrace
from .watchdog import LivelockWatchdog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..block.queue import BlockQueue
    from ..core.manager import IBridgeManager
    from ..sim import Environment
    from .invariants import ManagerAuditor


class AuditRuntime:
    """Shared state of the auditing subsystem for one simulation run."""

    def __init__(self, env: "Environment", config: AuditConfig) -> None:
        self.env = env
        self.config = config
        self.trace = EventTrace(config.trace_path, config.trace_limit)
        self.violations: List[Dict] = []
        self.watchdog = (LivelockWatchdog(env, self, config.watchdog_window)
                         if config.watchdog else None)
        self._managers: List["ManagerAuditor"] = []
        #: Number of injected faults currently active (repro.faults).
        self.active_faults = 0
        #: Sim time of the most recent fault begin/end transition.
        self.last_fault_transition: float = float("-inf")

    # ------------------------------------------------------------- wiring
    def attach_manager(self, manager: "IBridgeManager") -> "ManagerAuditor":
        """Create (and register) the auditor for one iBridge manager."""
        from .invariants import ManagerAuditor
        auditor = ManagerAuditor(manager, self)
        self._managers.append(auditor)
        if self.watchdog is not None:
            self.watchdog.watch_manager(manager)
        return auditor

    def watch_queue(self, queue: "BlockQueue") -> None:
        """Register a block queue for stall detection."""
        if self.watchdog is not None:
            self.watchdog.watch_queue(queue)

    # ------------------------------------------------------------- faults
    def fault_begin(self, kind: str, stalling: bool = True,
                    **context) -> None:
        """An injected fault window opened (emits ``fault_begin``).

        ``stalling`` marks windows that stop block-request completions
        by design (device fail-stop, server crash); while any such fault
        is active the livelock watchdog stands down — a paused device
        legitimately completes nothing for a whole window.
        """
        if stalling:
            self.active_faults += 1
        self.last_fault_transition = self.env.now
        self.trace.emit(self.env.now, "fault_begin", fault=kind, **context)

    def fault_end(self, kind: str, stalling: bool = True,
                  **context) -> None:
        """An injected fault window closed / recovery ran (``fault_end``)."""
        if stalling:
            self.active_faults = max(0, self.active_faults - 1)
        self.last_fault_transition = self.env.now
        self.trace.emit(self.env.now, "fault_end", fault=kind, **context)

    # ---------------------------------------------------------- reporting
    def violation(self, check: str, message: str, **context) -> None:
        """Record an invariant violation; raise in strict mode."""
        # Context keys are free-form; shield the record's own fields.
        context = {(f"ctx_{k}" if k in ("t", "kind", "check", "message")
                    else k): v for k, v in context.items()}
        record = self.trace.emit(self.env.now, "violation", check=check,
                                 message=message, **context)
        self.violations.append(record)
        self.trace.flush()
        if self.config.strict:
            raise AuditError(f"[{check}] t={self.env.now:.6f}: {message}")

    def checkpoint(self, event: str = "checkpoint") -> None:
        """Run every manager's full recount (ledgers + coherence) now."""
        for auditor in self._managers:
            auditor.check(event)

    @property
    def ok(self) -> bool:
        """True while no invariant has been violated."""
        return not self.violations

    def verdict(self) -> Dict:
        """Structured oracle verdict over the run so far.

        The raise-on-first-violation contract (strict mode) is the
        right default for unit tests, but an *oracle* consumer — the
        chaos episode runner — wants every violation collected and then
        one machine-readable summary at the end.  Run non-strict
        (``AuditConfig(strict=False)``) and call this after the run::

            {"ok": False, "violations": 3,
             "checks": ["dirty-ledger", "livelock"],
             "watchdog_fired": 1,
             "first": {"check": "dirty-ledger", "message": "..."}}

        ``checks`` is sorted and de-duplicated so verdicts are stable
        hash inputs for episode signatures.
        """
        first = self.violations[0] if self.violations else None
        return {
            "ok": self.ok,
            "violations": len(self.violations),
            "checks": sorted({str(v.get("check", "?"))
                              for v in self.violations}),
            "watchdog_fired": (self.watchdog.fired
                               if self.watchdog is not None else 0),
            "first": (None if first is None else
                      {"check": first.get("check"),
                       "message": first.get("message"),
                       "t": first.get("t")}),
        }

    def final_check(self) -> None:
        """End-of-run conservation over every attached manager."""
        for auditor in self._managers:
            auditor.final_check()
        self.trace.flush()

    def stop(self) -> None:
        """Stop the watchdog (end of simulation) and flush the trace."""
        if self.watchdog is not None:
            self.watchdog.stop()
        self.trace.flush()

    def summary(self) -> Dict[str, int]:
        """Lifetime trace-event counts by kind (for reports/examples)."""
        return self.trace.summary()

"""Livelock / stall watchdog for the simulated I/O system.

A stalled simulation is worse than a crashed one: the clock keeps
advancing (daemon polls, CFQ idle timers) while no actual I/O completes,
so a run appears to work and simply never finishes — exactly what a
writeback loop that never selects a flushable entry looks like.  The
watchdog samples every block queue once per window of *simulated* time
and fires when a full window passes with work pending at both sample
points and not a single block request completing anywhere.

On firing it emits a ``watchdog_stall`` trace record carrying the
per-queue depths, each manager's dirty-entry set, and a snapshot of the
event heap, runs every manager's full audit recount, then reports a
violation (raising ``AuditError`` in strict mode, which surfaces out of
``env.run()``).

Known limitation: a loop that never yields back to the event loop (pure
Python spin) freezes the interpreter before any watchdog process can
run; only invariants enforced *inside* the spinning code can catch that
class.  The manager's flush path therefore guarantees forward progress
per pass (see ``IBridgeManager._flush_some``), and the watchdog covers
the time-advancing stalls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .invariants import dirty_entry_dump

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..block.queue import BlockQueue
    from ..core.manager import IBridgeManager
    from .runtime import AuditRuntime


class LivelockWatchdog:
    """Fires when simulated time advances but no request completes."""

    def __init__(self, env, runtime: "AuditRuntime", window: float) -> None:
        self.env = env
        self.runtime = runtime
        self.window = window
        self._queues: List["BlockQueue"] = []
        self._managers: List["IBridgeManager"] = []
        self._stopped = False
        self.fired = 0
        self._prev: Optional[tuple] = None  # (completed, pending)
        env.process(self._run(), name="audit-watchdog")

    def watch_queue(self, queue: "BlockQueue") -> None:
        self._queues.append(queue)

    def watch_manager(self, manager: "IBridgeManager") -> None:
        self._managers.append(manager)

    def stop(self) -> None:
        """Stop at the next tick (lets ``env.run()`` drain to quiet)."""
        self._stopped = True

    # ------------------------------------------------------------- process
    def _run(self):
        while True:
            yield self.env.timeout(self.window)
            if self._stopped:
                return
            completed = sum(q.completed for q in self._queues)
            pending = sum(q.pending for q in self._queues)
            # Injected faults legitimately stall queues (a fail-stopped
            # device completes nothing by design).  Stand down while any
            # fault is active and for one full window after the last
            # transition, and restart the no-progress comparison.
            if (self.runtime.active_faults > 0
                    or self.env.now - self.runtime.last_fault_transition
                    < self.window):
                self._prev = None
                continue
            if (self._prev is not None
                    and pending > 0 and self._prev[1] > 0
                    and completed == self._prev[0]):
                self._fire(completed, pending)
            self._prev = (completed, pending)

    def _fire(self, completed: int, pending: int) -> None:
        self.fired += 1
        queues = [{"name": q.name, "pending": q.pending, "busy": q.busy,
                   "dispatches": q.dispatches, "completed": q.completed}
                  for q in self._queues]
        managers = [{"server": m.server_id,
                     "dirty_bytes": m.mapping.dirty_bytes,
                     "dirty_entries": dirty_entry_dump(m)}
                    for m in self._managers]
        events = self.env.queue_snapshot(limit=40)
        self.runtime.trace.emit(self.env.now, "watchdog_stall",
                                window=self.window, completed=completed,
                                pending=pending, queues=queues,
                                managers=managers, event_heap=events)
        # A stall is a phase boundary: run every manager's full recount
        # first, so accounting drift the per-mutation checks defer
        # surfaces here as the likelier root cause.
        self.runtime.checkpoint("watchdog")
        stuck = ", ".join(f"{q['name']}={q['pending']}" for q in queues
                          if q["pending"])
        self.runtime.violation(
            "livelock",
            f"no block request completed for {self.window} simulated "
            f"seconds with {pending} pending ({stuck}); see the "
            f"watchdog_stall trace record for queue depths, dirty entries "
            f"and the event heap",
            pending=pending, completed=completed)

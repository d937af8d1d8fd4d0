"""Event primitives for the discrete-event engine.

The engine follows the classic coroutine style: a *process* is a Python
generator that yields :class:`Event` objects; the environment resumes
the generator when the yielded event fires.  Events are single-shot —
they succeed or fail exactly once, and callbacks attached afterwards
fire immediately on the next scheduler pass.

Hot-path notes (see docs/PERFORMANCE.md): ``succeed``, ``fail`` and
``Timeout.__init__`` schedule inline, with no helper call — one Python
call frame per event is real money when a run processes tens of
millions of events.  An entry due at the current time (``succeed``,
``fail``, a zero-delay timeout) is appended to the environment's
normal-priority lane, a later one is pushed onto its heap (see
:class:`~repro.sim.core.Environment`).  The entry layout
``(time, priority, seq, event)`` and the monotone-``seq`` tie-break are
part of the engine's determinism contract; every inlined push must
reproduce it exactly.  Most waits on the request path build no event at
all: a wait only one step can see (a process or chain start, a chain's
timer, a NIC or I/O-slot grant, a delivery to a chain) is a bare entry
holding that step (:func:`repro.sim.core._schedule`), so an event here
is one somebody else may wait on, race, cancel or read.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, List, Optional, TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .core import Environment

Callback = Callable[["Event"], None]

#: Scheduling priorities.  URGENT is used for process and chain starts,
#: NORMAL for ordinary event processing.  Lower sorts first.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence with a value and attached callbacks.

    An event moves through three states: *pending* (created),
    *triggered* (scheduled with a value, waiting in the event queue) and
    *processed* (callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callback]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state -------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if not self._triggered:
            raise SimulationError("value accessed before event was triggered")
        return self._value

    # -- triggering --------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        env = self.env
        env._seq = seq = env._seq + 1
        env._normal.append((env._now, PRIORITY_NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to fire by raising ``exception`` in waiters."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        env = self.env
        env._seq = seq = env._seq + 1
        env._normal.append((env._now, PRIORITY_NORMAL, seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine does not re-raise."""
        self._defused = True

    def add_callback(self, callback: Callback) -> None:
        """Attach ``callback``; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Timeouts are the single most-allocated event type (every poll loop,
    idle window and service charge makes one), so construction writes
    the slots directly rather than chaining through ``Event.__init__``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        if delay:
            heappush(env._queue, (env._now + delay, PRIORITY_NORMAL, seq, self))
        else:
            env._normal.append((env._now, PRIORITY_NORMAL, seq, self))


class Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        # The one copy: ``Environment.all_of``/``any_of`` pass the
        # caller's iterable straight through.
        self.events = list(events)
        self._pending_count = 0
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self.events:
            self.succeed(self._collect())
            return
        check = self._check  # one bound method for all members
        for ev in self.events:
            if ev.callbacks is None:  # already processed
                check(ev)
            else:
                ev.callbacks.append(check)

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events if ev._processed and ev._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _on_failure(self, event: Event) -> None:
        event._defused = True
        if not self._triggered:
            self.fail(event._value)


class AllOf(Condition):
    """Fires when every component event has fired (fails fast on failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            # A member failing after the condition resolved (e.g. two
            # sub-request retries exhausting at the same instant) is
            # already accounted for by the condition's own failure —
            # defuse it so it cannot surface as an unhandled event.
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            self._on_failure(event)
            return
        self._pending_count += 1
        if self._pending_count == len(self.events):
            self.succeed({ev: ev._value for ev in self.events})


class AnyOf(Condition):
    """Fires as soon as any component event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            # A loser of the race that *fails* later (a timed-out retry
            # attempt, a drained member) was raced on purpose; absorb it.
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            self._on_failure(event)
            return
        self.succeed({event: event._value})

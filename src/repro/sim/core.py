"""The discrete-event simulation environment.

Deterministic by construction: ties in the event heap are broken by a
monotone sequence number, so two runs with the same seed produce
identical schedules.  This is essential for reproducible experiments
and for hypothesis-based property tests.

Determinism contract: every scheduling consumes exactly one ``seq``
number, and events dispatch in ``(time, priority, seq)`` order.  Three
kinds of scheduling are never dispatched but still consume their seq:
the completion of a :meth:`~Environment.spawn`-ed process that finishes
successfully with no waiters, the end of a :class:`Chain`, and a
timeout withdrawn with :meth:`~Environment.cancel`.  None could be
observed (no callback would run), so every other event keeps its seq,
its order and its time, and ``_seq`` deltas (event budgets) read as if
all had been dispatched.  A cancelled timeout stays in the heap and is
skipped without advancing the clock.

Callback chains (:class:`Chain`) are processes written by hand as
step methods, for the per-sub-request paths where a generator and a
:class:`Process` per round trip cost more host time than the work
itself.  They keep the contract by construction: a chain starts with
the same bootstrap entry a :class:`Process` pushes (one function,
:func:`_bootstrap`, builds it for both), each wait appends a step to the
awaited event's callbacks exactly where a process would append its
resume, and a chain's end consumes one seq, like the unobserved finish
of a detached spawn.  A chain therefore schedules the same
``(time, priority, seq)`` entries as the generator it replaces; only
failures differ, in that an exception raised by a step leaves
:meth:`Environment.run` at once instead of failing a process event.

Hot-path notes (see docs/PERFORMANCE.md): :meth:`Environment.run`
inlines the dispatch loop (``step()`` remains for single-stepping), the
bootstrap entry is a bare pre-triggered event built without the
``Event.__init__`` trampoline, and resumes go through a cached bound
``send`` method.  A finished process drops its cached resume callback,
so neither it nor anything it waited on is left in a reference cycle
for the cycle collector.  Every fast path preserves the heap-entry
layout and seq consumption exactly, so schedules are bit-identical to
the straightforward implementation — the determinism regression tests
in ``tests/test_sim_core.py`` pin this.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, List, Optional, Tuple

from ..errors import SimulationError
from .events import PRIORITY_NORMAL, PRIORITY_URGENT, AllOf, AnyOf, Event, Timeout

ProcessGenerator = Generator[Event, Any, Any]


class _Cancelled(tuple):
    """Callback list of a cancelled timeout: empty, and refuses waiters."""

    __slots__ = ()

    def append(self, callback: Any) -> None:
        raise SimulationError("cannot wait on a cancelled timeout")


#: Shared marker for cancelled timeouts; the dispatch loops test for it
#: by identity.
_CANCELLED = _Cancelled()


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


def _bootstrap(env: "Environment", callback) -> None:
    """Schedule ``callback`` on the next scheduler pass at the current
    time: the entry that starts every process and every chain.

    The event is a bare slot-filled :class:`Event` — it exists only to
    carry one callback through the heap once, so skipping the
    constructor saves a call frame per start.  A pool was considered
    and rejected: resetting a pooled event costs the same writes as
    building a fresh one, and eager (push-free) starts would reorder
    schedules.
    """
    init = Event.__new__(Event)
    init.env = env
    init.callbacks = [callback]
    init._value = None
    init._ok = True
    init._triggered = True
    init._processed = False
    init._defused = False
    env._seq = seq = env._seq + 1
    heappush(env._queue, (env._now, PRIORITY_URGENT, seq, init))


class Chain:
    """A fire-and-forget process written as step methods.

    The constructor of a subclass fills its slots and calls
    :meth:`_start` with its first step; every step takes the event that
    woke it, and waits by appending its successor to the next event's
    ``callbacks`` (the event must not be processed yet — a chain waits
    only on events it just created or was just handed).  The last step
    calls :meth:`_end`.  Scheduling is entry for entry that of the same
    body as a generator under :meth:`Environment.spawn` with nobody
    waiting on it (see the module docstring).

    A chain must not reference an event it waits on that may never fire
    (a lost message's delivery): the event's callback references the
    chain, and the two are freed together by reference counting only
    if that is the sole link.
    """

    __slots__ = ("env",)

    def _start(self, step) -> None:
        _bootstrap(self.env, step)

    def _end(self) -> None:
        # The unobserved completion of a detached spawn: one seq.
        self.env._seq += 1


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds its value is sent back into the generator; when it fails,
    the exception is thrown into the generator (which may catch it).
    """

    __slots__ = ("_generator", "_send", "_resume_cb", "_target", "_detached",
                 "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None) -> None:
        # The bound ``send`` is cached: it is called once per resume, so
        # for long-lived processes the one-time allocation replaces a
        # per-resume method lookup.  ``throw`` is NOT cached — it only
        # runs on failure paths, and an extra live bound method per
        # process is measurable GC weight in spawn-heavy workloads.
        try:
            self._send = generator.send
        except AttributeError:
            raise SimulationError(f"{generator!r} is not a generator") from None
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        self._detached = False
        self.name = name or getattr(generator, "__name__", "process")
        # ``self._resume`` builds a fresh bound method on every access;
        # waiting on an event appends it to the event's callback list,
        # so without this cache every yield allocates one.  The cache
        # is a process <-> bound-method cycle; :meth:`_finish` breaks
        # it, so a finished process is freed by reference counting.
        self._resume_cb = resume = self._resume
        _bootstrap(env, resume)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        wakeup = Event.__new__(Event)
        wakeup.env = self.env
        wakeup.callbacks = [self._resume_cb]
        wakeup._value = Interrupt(cause)
        wakeup._ok = False
        wakeup._triggered = True
        wakeup._processed = False
        wakeup._defused = True
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, PRIORITY_URGENT, seq, wakeup))

    def _resume(self, event: Event) -> None:
        env = self.env
        # A loop, not recursion: yielding an already-processed event
        # resumes on the spot, and a process may do that any number of
        # times in a row.
        while True:
            env._active_process = self
            self._target = None
            try:
                if event._ok:
                    target = self._send(event._value)
                else:
                    event._defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                self._finish(True, stop.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._finish(False, exc)
                return
            env._active_process = None

            if not isinstance(target, Event):
                break
            if target.env is not env:
                self._finish(False, SimulationError(
                    "yielded event belongs to another environment"))
                return
            callbacks = target.callbacks
            if callbacks is None:
                # Already processed: resume again on the spot (matches
                # Event.add_callback semantics without the call).
                event = target
                continue
            callbacks.append(self._resume_cb)
            self._target = target
            return

        exc = SimulationError(
            f"process {self.name!r} yielded a non-event: {target!r}")
        try:
            self._generator.throw(exc)
        except StopIteration as stop:
            self._finish(True, stop.value)
        except BaseException as err:
            self._finish(False, err)

    def _finish(self, ok: bool, value: Any) -> None:
        """The generator ended: drop the resume cycle, fire the process
        event (a detached process with no waiters only consumes its seq)."""
        self._resume_cb = None
        if not ok:
            self.fail(value)
        elif self._detached and not self.callbacks:
            env = self.env
            env._seq += 1
            self._value = value
            self._triggered = True
            self._processed = True
            self.callbacks = None
        else:
            self.succeed(value)


class Environment:
    """Event loop with a simulated clock.

    Usage::

        env = Environment()
        def proc(env):
            yield env.timeout(1.0)
        env.process(proc(env))
        env.run()
    """

    __slots__ = ("_now", "_queue", "_seq", "_active_process")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None

    # -- clock -------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now.

        Construction is inlined (mirroring ``Timeout.__init__`` slot for
        slot): this factory is the single most-called allocation site in
        the package, and skipping the constructor frame is a measurable
        share of events/sec.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        ev = Timeout.__new__(Timeout)
        ev.env = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._triggered = True
        ev._processed = False
        ev._defused = False
        ev.delay = delay
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, PRIORITY_NORMAL, seq, ev))
        return ev

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def spawn(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a fire-and-forget process.

        Like :meth:`process`, except that a successful finish with no
        waiters does not schedule the completion event: nothing would
        observe it, so it only consumes its seq number.  A process that
        fails, or that someone waits on, completes exactly as under
        :meth:`process` — so an unhandled failure still surfaces from
        :meth:`run`.
        """
        proc = self.process(generator, name)
        proc._detached = True
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing once all ``events`` fire."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing once any of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------
    def _schedule(self, event: Event, priority: int = PRIORITY_NORMAL,
                  delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def cancel(self, timeout: Timeout) -> None:
        """Withdraw a pending timeout: it will never fire (a no-op once
        it has fired).

        Its callbacks are dropped, so whatever waited on it is no longer
        kept alive by it; waiting on it afterwards raises
        :class:`SimulationError`.  The heap entry stays where it is and
        the dispatch loops skip it without advancing the clock.
        """
        if not isinstance(timeout, Timeout):
            raise SimulationError(f"cannot cancel {timeout!r}: not a timeout")
        if timeout.callbacks is not None:
            timeout.callbacks = _CANCELLED

    def queue_snapshot(self, limit: Optional[int] = None) -> List[Tuple[float, int, int, str]]:
        """The pending event queue as ``(time, priority, seq, label)``.

        Diagnostic view (used by the audit watchdog's stall dumps):
        events are labelled with their process name when they belong to
        a process, else their class name.  Sorted by firing order.  With
        ``limit`` only the first ``limit`` entries are extracted — via
        ``heapq.nsmallest``, so a stall dump on a deep queue costs
        O(n log limit) rather than sorting the whole pending set.
        """
        live = [entry for entry in self._queue
                if entry[3].callbacks is not _CANCELLED]
        if limit is not None:
            items = heapq.nsmallest(limit, live)
        else:
            items = sorted(live)
        out = []
        for when, prio, seq, event in items:
            label = getattr(event, "name", None) or type(event).__name__
            out.append((when, prio, seq, label))
        return out

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        Cancelled timeouts on the way are skipped, not counted.
        """
        queue = self._queue
        while True:
            if not queue:
                raise SimulationError("step() on an empty event queue")
            when, _prio, _seq, event = heappop(queue)
            callbacks = event.callbacks
            if callbacks is not _CANCELLED:
                break
        self._now = when
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # Nobody handled the failure: surface it to the caller of run().
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a time (run until
        the clock reaches it), or an :class:`Event` (run until it fires,
        returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})")

        # The dispatch loop is the single hottest code in the package;
        # it is inlined here (rather than calling step()) with the queue
        # and heappop bound to locals.  Semantics match step() exactly.
        queue = self._queue
        pop = heappop
        cancelled = _CANCELLED
        if stop_event is None and stop_time == float("inf"):
            # Run-to-exhaustion fast path: no stop checks per event.
            while queue:
                when, _prio, _seq, event = pop(queue)
                callbacks = event.callbacks
                if callbacks is cancelled:
                    continue
                self._now = when
                event.callbacks = None
                event._processed = True
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            return None

        while queue:
            if stop_event is not None and stop_event._processed:
                break
            if queue[0][0] > stop_time:
                self._now = stop_time
                return None
            when, _prio, _seq, event = pop(queue)
            callbacks = event.callbacks
            if callbacks is cancelled:
                continue
            self._now = when
            event.callbacks = None
            event._processed = True
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                raise event._value

        if stop_event is not None:
            if not stop_event._processed:
                raise SimulationError("run() ran out of events before `until` fired")
            if not stop_event._ok:
                raise stop_event._value  # type: ignore[misc]
            return stop_event._value
        if until is not None and stop_time != float("inf"):
            self._now = stop_time
        return None

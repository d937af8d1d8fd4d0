"""The discrete-event simulation environment.

Deterministic by construction: ties in the event heap are broken by a
monotone sequence number, so two runs with the same seed produce
identical schedules.  This is essential for reproducible experiments
and for hypothesis-based property tests.

Determinism contract:

* every scheduling consumes exactly one ``seq`` number, and entries
  dispatch in ``(time, priority, seq)`` order;
* the successful, unwaited completion of a
  :meth:`~Environment.spawn`-ed process, the end of a :class:`Chain`
  and a timeout withdrawn with :meth:`~Environment.cancel` are never
  dispatched but consume their seq: nothing could observe them, so
  every other entry keeps its seq, order and time, and ``_seq`` deltas
  (event budgets) read as if all had been dispatched;
* a bare step entry (:func:`_schedule`) dispatches exactly like the
  one-callback event it replaces: same ``(time, priority, seq)``, and
  its step is called with a processed, successful event of value
  ``None``.

Callback chains (:class:`Chain`) are processes written by hand as
step methods, for the per-sub-request paths where a generator and a
:class:`Process` per round trip cost more host time than the work
itself.  A chain starts with the urgent-lane entry a process start
pushes, its own timers are bare entries where the timeouts would be,
other waits append a step to the awaited event's callbacks where a
process would append its resume, and its end consumes one seq like the
unobserved finish of a detached spawn.  So it schedules the generator's
``(time, priority, seq)`` entries; only an exception raised by a step
differs, leaving :meth:`Environment.run` at once.

Hot-path notes (see docs/PERFORMANCE.md): an entry due at the current
time goes to a FIFO lane, not through the heap (see
:class:`Environment`; the urgent lane holds only process and chain
starts); :meth:`Environment.run` inlines the dispatch loop (``step()``
remains for single-stepping), and resumes go through a cached bound
``send`` method.  A finished process drops its cached resume callback,
so neither it nor anything it waited on is left in a reference cycle
for the cycle collector.  Every fast path preserves the entry layout
and seq consumption exactly, so schedules are bit-identical to the
straightforward implementation — the determinism regression tests in
``tests/test_sim_core.py`` pin this.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import chain
from types import MethodType
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


#: What a bare entry's step is called with: the processed, successful
#: event of value ``None`` the one-callback event it replaces would have
#: handed it.  Shared, since no step keeps or changes it.
_DONE = Event(None)
_DONE.callbacks = None
_DONE._triggered = _DONE._processed = True


def _schedule(env: "Environment", step, delay: Optional[float] = None) -> None:
    """Schedule the bound method ``step`` as a bare entry, called with
    :data:`_DONE`: with ``delay`` None where a process start goes (the
    urgent lane), else where a timeout of ``delay`` (for 0, a
    ``succeed``) would put its entry."""
    env._seq = seq = env._seq + 1
    if delay is None:
        env._urgent.append((env._now, PRIORITY_URGENT, seq, step))
    elif delay > 0:
        heappush(env._queue, (env._now + delay, PRIORITY_NORMAL, seq, step))
    elif delay == 0:
        env._normal.append((env._now, PRIORITY_NORMAL, seq, step))
    else:
        raise SimulationError(f"negative delay {delay!r}")


def _notify(env: "Environment", target, value: Any = None) -> None:
    """Complete a wait that is an :class:`Event` (succeeded with
    ``value``) or a bare step (scheduled where ``succeed`` would push)."""
    if isinstance(target, Event):
        target.succeed(value)
    else:
        _schedule(env, target, 0)


class Chain:
    """A fire-and-forget process written as step methods.

    The constructor of a subclass fills its slots and calls
    :meth:`_start` with its first step; every step takes the event that
    woke it, and waits on its own timer with :meth:`_after`, on a grant,
    delivery or reply by handing its successor to the primitive, and on
    any other event by appending the successor to its ``callbacks`` (it
    must not be processed yet — a chain waits only on events it just
    created or was just handed).  The last step calls :meth:`_end`.

    A chain must not reference an event it waits on that may never fire
    (a lost message's delivery): the event's callback references the
    chain, and the two are freed together by reference counting only
    if that is the sole link.
    """

    __slots__ = ("env",)

    def _start(self, step) -> None:
        _schedule(self.env, step)

    def _after(self, delay: float, step) -> None:
        _schedule(self.env, step, delay)

    def _yield_from(self, generator, then, event: Event = _DONE) -> None:
        """Run ``generator`` as a process body would under ``yield
        from`` (resumed with ``event`` first), then ``then(None)``."""
        _YieldFrom(generator, then)._resume(event)

    def _end(self) -> None:
        # The unobserved completion of a detached spawn: one seq.
        self.env._seq += 1


class _YieldFrom:
    """A generator a chain waits on, resumed as :class:`Process` resumes
    one; an exception it raises leaves :meth:`Environment.run`."""

    __slots__ = ("generator", "then", "resume")

    def __init__(self, generator, then) -> None:
        self.generator = generator
        self.then = then
        self.resume = self._resume

    def _resume(self, event: Event) -> None:
        generator = self.generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event._defused = True
                    target = generator.throw(event._value)
            except StopIteration:
                break
            callbacks = target.callbacks
            if callbacks is None:
                # Already processed: resume again on the spot.
                event = target
                continue
            callbacks.append(self.resume)
            return
        then = self.then
        # Drop the bound-resume cycle, so nothing waits for the collector.
        self.resume = self.generator = self.then = None
        then(None)


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds its value is sent back into the generator; when it fails,
    the exception is thrown into the generator (which may catch it).
    """

    __slots__ = ("_generator", "_send", "_resume_cb", "_detached", "name")

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
        self._detached = False
        self.name = name or getattr(generator, "__name__", "process")
        # ``self._resume`` builds a fresh bound method on every access;
        # waiting on an event appends it to the event's callback list,
        # so without this cache every yield allocates one.  The cache
        # is a process <-> bound-method cycle; :meth:`_finish` breaks
        # it, so a finished process is freed by reference counting.
        self._resume_cb = resume = self._resume
        _schedule(env, resume)

    def _resume(self, event: Event) -> None:
        env = self.env
        # A loop, not recursion: yielding an already-processed event
        # resumes on the spot, and a process may do that any number of
        # times in a row.
        while True:
            try:
                if event._ok:
                    target = self._send(event._value)
                else:
                    event._defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._finish(True, stop.value)
                return
            except BaseException as exc:
                self._finish(False, exc)
                return

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

    Pending entries ``(time, priority, seq, event)`` live in three
    containers; ``event`` is an :class:`Event` or, for a bare entry, the
    bound step it runs (:func:`_schedule`).  One due at the current time
    is appended to a FIFO lane, ``_urgent`` (process and chain starts)
    or ``_normal`` (``succeed``, ``fail``, zero-delay timeouts, grants);
    a later one is pushed onto the heap ``_queue``.  Every lane entry
    has time ``_now`` and each lane is in seq order, so the next entry
    is the smaller of the heap top and the first non-empty lane's head,
    and the clock moves only once both lanes are empty: the dispatch
    order is exactly that of one heap holding every entry.
    """

    __slots__ = ("_now", "_queue", "_urgent", "_normal", "_seq",
                 "_cancelled")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._urgent: deque = deque()
        self._normal: deque = deque()
        self._seq = 0
        # Timeouts cancelled since the heap was last compacted.
        self._cancelled = 0

    # -- clock -------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

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
        if delay:
            heappush(self._queue, (self._now + delay, PRIORITY_NORMAL, seq, ev))
        else:
            self._normal.append((self._now, PRIORITY_NORMAL, seq, ev))
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
    def cancel(self, timeout: Timeout) -> None:
        """Withdraw a pending timeout: it will never fire (a no-op once
        it has fired).

        Its callbacks are dropped, so whatever waited on it is no longer
        kept alive by it; waiting on it afterwards raises
        :class:`SimulationError`.  Its entry is dropped at the next
        compaction: once more timeouts were cancelled since the last one
        than half the heap holds, the heap is rebuilt from its live
        entries, in place (``run`` holds the list).  An entry that
        reaches the front first is skipped without advancing the clock.
        """
        if not isinstance(timeout, Timeout):
            raise SimulationError(f"cannot cancel {timeout!r}: not a timeout")
        if timeout.callbacks is not None:
            timeout.callbacks = _CANCELLED
            self._cancelled = cancelled = self._cancelled + 1
            queue = self._queue
            if cancelled > len(queue) >> 1:
                queue[:] = [entry for entry in queue
                            if getattr(entry[3], "callbacks", None)
                            is not _CANCELLED]
                heapify(queue)
                self._cancelled = 0

    def queue_snapshot(self, limit: Optional[int] = None) -> List[Tuple[float, int, int, str]]:
        """The pending event queue as ``(time, priority, seq, label)``.

        Diagnostic view (used by the audit watchdog's stall dumps):
        events are labelled with their process name when they belong to
        a process, else their class name; a bare entry by its process's
        name for a process start, else by its step's qualified name
        (``_Transfer._wired``).  Sorted by firing order.  With
        ``limit`` only the first ``limit`` entries are extracted — via
        ``heapq.nsmallest``, so a stall dump on a deep queue costs
        O(n log limit) rather than sorting the whole pending set.
        """
        live = [entry for entry in chain(self._queue, self._urgent, self._normal)
                if getattr(entry[3], "callbacks", None) is not _CANCELLED]
        if limit is not None:
            items = heapq.nsmallest(limit, live)
        else:
            items = sorted(live)
        out = []
        for when, prio, seq, event in items:
            if isinstance(event, Event):
                label = getattr(event, "name", None) or type(event).__name__
            elif isinstance(event.__self__, Process):
                label = event.__self__.name
            else:
                label = event.__qualname__
            out.append((when, prio, seq, label))
        return out

    def step(self) -> None:
        """Process exactly one entry (advancing the clock to it).

        Cancelled timeouts on the way are skipped, not counted.
        """
        queue = self._queue
        while True:
            lane = self._urgent or self._normal
            if lane:
                entry = (heappop(queue) if queue and queue[0] < lane[0]
                         else lane.popleft())
            elif queue:
                entry = heappop(queue)
            else:
                raise SimulationError("step() on an empty event queue")
            when, _prio, _seq, event = entry
            if type(event) is MethodType:
                self._now = when
                event(_DONE)
                return
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
        # it is inlined here (rather than calling step()) with the
        # containers and heappop bound to locals.  Semantics match
        # step() exactly.  One loop serves all three modes: with no
        # ``until`` the stop checks never fire and it ends when the
        # queue is empty.
        queue = self._queue
        urgent = self._urgent
        normal = self._normal
        pop = heappop
        cancelled = _CANCELLED
        method = MethodType
        done = _DONE
        while True:
            if stop_event is not None and stop_event._processed:
                break
            lane = urgent or normal
            if lane:
                # Lane entries are due now, so never after stop_time.
                entry = (pop(queue) if queue and queue[0] < lane[0]
                         else lane.popleft())
            elif queue:
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
                entry = pop(queue)
            else:
                break
            when, _prio, _seq, event = entry
            if type(event) is method:
                self._now = when
                event(done)
                continue
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

"""A fixed reference workload that measures how fast the host is right now.

The host this benchmark runs on changes speed by tens of percent over
seconds, as other tenants come and go, and the simulator slows with it.
:func:`kernel_s` times a small discrete-event loop written here, with
no code from the simulator: a heap of timed events, generator
processes resumed by ``send``, short-lived dicts and lists, and scans of
a shared queue, the same kinds of work the simulator's hot paths do.
Because the kernel never changes, a change to the simulator cannot
move it; a change in host speed moves both.

The benchmark times the kernel between repetitions and reports each
repetition's host time scaled by :func:`scale` of the mean of the
kernel times on either side of it: roughly, host seconds on a machine
where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

#: Kernel time, in seconds, that normalized host times are scaled to.
REFERENCE_S = 0.05
#: When the host slows down, the simulator slows by about the kernel's
#: slowdown to this power.  Fitted on 40 recorded benchmark runs (ten
#: per workload): 0.8 gave the smallest run-to-run spread of the
#: per-run medians, against 1.0 (full scaling) and 0.0 (raw times).
EXPONENT = 0.8


def scale(kernel_time_s: float) -> float:
    """Factor that maps a host time measured at ``kernel_time_s`` to
    the reference host."""
    return (REFERENCE_S / kernel_time_s) ** EXPONENT


def _proc(env, queue, pid):
    state = {"pid": pid, "served": 0, "history": []}
    for step in range(40):
        msg = {"src": pid, "seq": step, "size": (pid * 7 + step) % 97}
        queue.append(msg)
        if len(queue) > 48:
            # Scan for a partner, as an elevator does for merges.
            for other in list(queue):
                if other["size"] == msg["size"] and other is not msg:
                    queue.remove(other)
                    break
            else:
                queue.popleft()
        state["history"].append(msg["size"])
        state["served"] += 1
        yield (step % 5 + 1) * 1e-3
    env["done"] += state["served"]


def kernel() -> int:
    """One pass of the reference loop; returns a checksum."""
    env = {"done": 0}
    queue: deque = deque()
    heap = []
    seq = 0
    for pid in range(320):
        gen = _proc(env, queue, pid)
        seq += 1
        heap.append((0.0, seq, gen))
    heapq.heapify(heap)
    while heap:
        now, _, gen = heapq.heappop(heap)
        try:
            delay = gen.send(None)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, gen))
    return env["done"]


def kernel_s(passes: int = 3) -> float:
    """Median host seconds of ``passes`` kernel passes."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]

"""Per-layer host-time attribution for the simulator, measured from outside.

:class:`LayerTracer` patches the simulator's classes at run time so that
every call into a layer's public functions is timed; :meth:`uninstall`
puts the originals back.  The program itself is not edited.

Accounting is a self-time stack.  ``enter(layer)`` charges the time
since the last stack change to the layer on top and pushes ``layer``;
``leave()`` charges the top and pops it.  Every nanosecond between
:meth:`LayerTracer.start` and :meth:`LayerTracer.stop` is charged to
exactly one layer, so the layer self times sum to the traced wall time
exactly, and a caller's time excludes its callees'.

Three kinds of hook feed the stack:

* ``Environment.process`` wraps each process generator in a shim that
  times every ``send``/``throw`` resume and charges it to the layer of
  the module owning the generator's code (the process name is kept);
* the generator methods other layers reach through ``yield from``
  (``IBridgeManager.handle``/``flush_all``, ``DataServer.drain``) get
  the same shim;
* synchronous public methods are wrapped with ``enter``/``leave``.

The shims only pass values and exceptions through and never touch the
event heap, so a traced run reproduces the untraced ``run_digest``.
"""

from __future__ import annotations

import importlib
import inspect
import os
import types
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers, named after the modules a request crosses.
LAYERS: Tuple[str, ...] = (
    "sim", "workloads", "pfs.client", "pfs.server", "net",
    "core.manager", "core.mapping", "core.partition", "core.service_model",
    "core.logstore", "localfs", "block.queue", "block.sched.hdd",
    "block.sched.ssd", "devices.hdd", "devices.ssd", "devices.ftl",
    "obs", "audit",
)

#: Module prefix (relative to the ``repro`` package) -> layer.  The
#: longest matching prefix wins.  Used for process generators and for
#: the per-layer source-line counts.  Modules matching nothing (config,
#: faults, chaos, svc, util, ...) belong to no layer.
MODULE_LAYERS: Dict[str, str] = {
    "sim": "sim",
    "workloads": "workloads",
    "mpi": "workloads",
    "pfs.client": "pfs.client",
    "pfs.layout": "pfs.client",
    "pfs.messages": "pfs.client",
    "pfs": "pfs.server",
    "net": "net",
    "core.manager": "core.manager",
    "core.mapping": "core.mapping",
    "core.partition": "core.partition",
    "core.service_model": "core.service_model",
    "core.logstore": "core.logstore",
    "localfs": "localfs",
    "block.cfq": "block.sched.hdd",
    "block.scheduler": "block.sched.ssd",
    "block": "block.queue",
    "devices.ssd": "devices.ssd",
    "devices.ftl": "devices.ftl",
    "devices": "devices.hdd",
    "obs": "obs",
    "audit": "audit",
}

#: Synchronous methods to time: (module, class, layer, names).  ``None``
#: names every public method and property the class itself defines.
SYNC_TARGETS: Tuple[Tuple[str, str, str, Optional[Tuple[str, ...]]], ...] = (
    ("repro.pfs.client", "PFSClient", "pfs.client",
     ("split", "submit", "read", "write")),
    ("repro.pfs.server", "DataServer", "pfs.server", ("submit",)),
    ("repro.net.network", "Network", "net", ("send",)),
    ("repro.localfs.store", "LocalStore", "localfs",
     ("ranges_for_read", "ranges_for_write", "is_allocated")),
    ("repro.core.mapping", "MappingTable", "core.mapping", None),
    ("repro.core.partition", "PartitionManager", "core.partition", None),
    ("repro.core.service_model", "DiskServiceModel", "core.service_model",
     None),
    ("repro.core.service_model", "GlobalTTable", "core.service_model", None),
    ("repro.core.logstore", "LogStore", "core.logstore", None),
    ("repro.devices.hdd", "HardDisk", "devices.hdd", ("serve",)),
    ("repro.devices.ssd", "SolidStateDrive", "devices.ssd", ("serve", "trim")),
    ("repro.devices.ftl", "FlashTranslationLayer", "devices.ftl", None),
    ("repro.devices.ftl", "GCCoordinator", "devices.ftl", None),
    ("repro.obs.span", "Tracer", "obs", None),
    ("repro.obs.span", "Span", "obs", ("annotate",)),
    ("repro.obs.metrics", "MetricsRegistry", "obs", None),
    ("repro.obs.metrics", "Counter", "obs", ("inc",)),
    ("repro.obs.metrics", "Histogram", "obs", ("observe",)),
    ("repro.obs.runtime", "ObsRuntime", "obs", None),
    ("repro.obs.timeline", "TimelineRecorder", "obs", None),
    ("repro.audit.runtime", "AuditRuntime", "audit", None),
    ("repro.audit.invariants", "ManagerAuditor", "audit", None),
    ("repro.audit.trace", "EventTrace", "audit", None),
)

#: Generator methods other layers reach through ``yield from``.
GEN_TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("repro.core.manager", "IBridgeManager", "core.manager",
     ("handle", "flush_all")),
    ("repro.pfs.server", "DataServer", "pfs.server", ("drain",)),
)

#: Module-level functions: (defining module, name, layer, modules that
#: imported the name and so hold their own reference to it).
FUNC_TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("repro.core.service_model", "fragment_return", "core.service_model",
     ("repro.core.manager",)),
)

#: Elevators, charged to ``block.sched.hdd`` or ``block.sched.ssd`` by
#: the device of the queue that feeds the scheduler instance.
SCHED_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("repro.block.cfq", "CFQScheduler"),
    ("repro.block.scheduler", "NoopScheduler"),
    ("repro.block.scheduler", "DeadlineScheduler"),
)

ROLES = ("hdd", "ssd")


def module_layer(module: str) -> Optional[str]:
    """Layer of a module named relative to ``repro`` (longest prefix)."""
    best: Optional[str] = None
    for prefix in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best):
                best = prefix
    return MODULE_LAYERS[best] if best is not None else None


def module_of_file(path: str) -> Optional[str]:
    """``.../repro/pfs/client.py`` -> ``pfs.client`` (None outside it)."""
    parts = os.path.normpath(path).split(os.sep)
    if "repro" not in parts or not parts[-1].endswith(".py"):
        return None
    rel = parts[len(parts) - parts[::-1].index("repro"):]
    rel[-1] = rel[-1][:-3]
    if rel[-1] == "__init__":
        rel.pop()
    return ".".join(rel)


def src_lines(src_root: str) -> Dict[str, int]:
    """Non-blank, non-comment source lines per layer, plus ``total``.

    ``src_root`` is the directory holding the ``repro`` package.
    """
    counts = {layer: 0 for layer in LAYERS}
    counts["total"] = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(src_root, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path, encoding="utf-8") as fh:
                n = sum(1 for line in fh
                        if line.strip() and not line.lstrip().startswith("#"))
            counts["total"] += n
            layer = module_layer(module_of_file(path) or "")
            if layer is not None:
                counts[layer] += n
    return counts


class LayerTracer:
    """Self-time stack plus the patches that feed it.

    Usage::

        tracer = LayerTracer()
        tracer.install()          # before the cluster is built
        try:
            cluster = Cluster(cfg)
            tracer.start()
            result = run_workload(cluster, workload)
            tracer.stop()
        finally:
            tracer.uninstall()
        tracer.self_ns, tracer.calls, tracer.wall_ns
    """

    def __init__(self) -> None:
        self._stack: List[str] = ["untimed"]
        self._last = perf_counter_ns()
        self._t0 = 0
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._code_layers: Dict[types.CodeType, Optional[str]] = {}
        #: id(scheduler) -> device role, learnt at ``BlockQueue.submit``.
        self._sched_role: Dict[int, str] = {}
        self.wall_ns = 0
        self._reset_counts()

    def _reset_counts(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Block requests returned by ``BlockQueue.submit``, per role.
        self.block_requests: Dict[str, List[Any]] = {r: [] for r in ROLES}
        self.block_dispatches: Dict[str, int] = {r: 0 for r in ROLES}
        self.block_members: Dict[str, int] = {r: 0 for r in ROLES}
        self.split_parents = 0
        self.split_subs = 0
        self.ibridge_candidates = 0
        self.mapping_inserts = 0

    # ------------------------------------------------------------ stack
    def enter(self, layer: str) -> None:
        now = perf_counter_ns()
        stack = self._stack
        self.self_ns[stack[-1]] += now - self._last
        self.calls[layer] += 1
        stack.append(layer)
        self._last = now

    def leave(self) -> None:
        now = perf_counter_ns()
        self.self_ns[self._stack.pop()] += now - self._last
        self._last = now

    def start(self) -> None:
        """Zero every count; charge what follows to ``workloads``."""
        if len(self._stack) != 1:
            raise RuntimeError(f"start() inside a traced call: {self._stack}")
        self._reset_counts()
        self._stack[0] = "workloads"
        self._t0 = self._last = perf_counter_ns()

    def stop(self) -> None:
        """Close the traced interval; ``wall_ns`` is its length."""
        if len(self._stack) != 1:
            raise RuntimeError(f"stop() inside a traced call: {self._stack}")
        now = perf_counter_ns()
        self.self_ns[self._stack[0]] += now - self._last
        self._last = now
        self.wall_ns = now - self._t0
        self._stack[0] = "untimed"

    # ------------------------------------------------------------ shims
    def shim(self, gen, layer: str):
        """Generator wrapper charging each resume of ``gen`` to ``layer``.

        Follows the PEP 380 expansion of ``yield from``: sent values,
        thrown exceptions, ``close`` and the return value all pass
        through unchanged.
        """
        enter, leave = self.enter, self.leave
        value = None
        thrown: Optional[BaseException] = None
        while True:
            enter(layer)
            try:
                if thrown is None:
                    out = gen.send(value)
                else:
                    exc, thrown = thrown, None
                    out = gen.throw(exc)
            except StopIteration as stop:
                leave()
                return stop.value
            except BaseException:
                leave()
                raise
            leave()
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                thrown = exc

    def wrap_process_generator(self, gen):
        """Shim a process generator by the module owning its code."""
        if not isinstance(gen, types.GeneratorType) or gen.gi_code is _SHIM_CODE:
            return gen
        code = gen.gi_code
        try:
            layer = self._code_layers[code]
        except KeyError:
            module = module_of_file(code.co_filename)
            layer = module_layer(module) if module is not None else None
            self._code_layers[code] = layer
        return gen if layer is None else self.shim(gen, layer)

    # ------------------------------------------------------------ patches
    def _patch(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        self._patches.append((owner, name, had, vars(owner).get(name)))
        setattr(owner, name, value)

    def _sync(self, fn: Callable, layer: str) -> Callable:
        enter, leave = self.enter, self.leave

        def timed(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        timed.__wrapped__ = fn
        return timed

    def _gen(self, fn: Callable, layer: str) -> Callable:
        shim = self.shim

        def timed(*args, **kwargs):
            return shim(fn(*args, **kwargs), layer)

        timed.__wrapped__ = fn
        return timed

    def _wrap_member(self, cls: type, name: str, layer: str) -> None:
        member = inspect.getattr_static(cls, name)
        if isinstance(member, property):
            if member.fget is not None:
                self._patch(cls, name, property(
                    self._sync(member.fget, layer), member.fset,
                    member.fdel, member.__doc__))
        elif inspect.isfunction(member):
            wrap = (self._gen if inspect.isgeneratorfunction(member)
                    else self._sync)
            self._patch(cls, name, wrap(member, layer))

    def install(self) -> None:
        """Patch the simulator (undo with :meth:`uninstall`)."""
        if self._patches:
            raise RuntimeError("LayerTracer already installed")
        from repro.sim.core import Environment

        orig_process = Environment.process
        wrap = self.wrap_process_generator

        def process(env, generator, name=None):
            name = name or getattr(generator, "__name__", "process")
            return orig_process(env, wrap(generator), name)

        self._patch(Environment, "process", process)
        self._patch(Environment, "run", self._sync(Environment.run, "sim"))

        for modname, clsname, layer, names in SYNC_TARGETS + GEN_TARGETS:
            cls = getattr(importlib.import_module(modname), clsname)
            if names is None:
                names = tuple(n for n in vars(cls) if not n.startswith("_"))
            for name in names:
                self._wrap_member(cls, name, layer)
        for modname, fname, layer, importers in FUNC_TARGETS:
            fn = getattr(importlib.import_module(modname), fname)
            timed = self._sync(fn, layer)
            for owner in (modname,) + importers:
                mod = importlib.import_module(owner)
                if getattr(mod, fname, None) is fn:
                    self._patch(mod, fname, timed)
        self._install_counters()
        self._install_block()

    def _install_counters(self) -> None:
        """Layer-specific counts taken at the same call boundaries."""
        from repro.core.manager import IBridgeManager
        from repro.core.mapping import MappingTable
        from repro.pfs.client import PFSClient

        tracer = self
        split = PFSClient.split
        handle = IBridgeManager.handle
        insert = MappingTable.insert

        def counted_split(client, parent):
            subs = split(client, parent)
            tracer.split_parents += 1
            tracer.split_subs += len(subs)
            return subs

        def counted_handle(manager, sub, span=None):
            if sub.is_fragment or sub.is_random:
                tracer.ibridge_candidates += 1
            return handle(manager, sub, span)

        def counted_insert(table, entry):
            tracer.mapping_inserts += 1
            return insert(table, entry)

        self._patch(PFSClient, "split", counted_split)
        self._patch(IBridgeManager, "handle", counted_handle)
        self._patch(MappingTable, "insert", counted_insert)

    def _install_block(self) -> None:
        from repro.block.queue import BlockQueue
        from repro.devices.ssd import SolidStateDrive

        tracer = self
        enter, leave = self.enter, self.leave
        roles = self._sched_role
        submit = BlockQueue.submit

        def timed_submit(queue, *args, **kwargs):
            role = "ssd" if isinstance(queue.device, SolidStateDrive) else "hdd"
            roles[id(queue.scheduler)] = role
            enter("block.queue")
            try:
                req = submit(queue, *args, **kwargs)
            finally:
                leave()
            tracer.block_requests[role].append(req)
            return req

        self._patch(BlockQueue, "submit", timed_submit)

        for modname, clsname in SCHED_CLASSES:
            cls = getattr(importlib.import_module(modname), clsname)

            def timed_add(sched, *args, _add=cls.add, **kwargs):
                enter("block.sched." + roles.get(id(sched), "hdd"))
                try:
                    return _add(sched, *args, **kwargs)
                finally:
                    leave()

            def timed_select(sched, *args, _select=cls.select, **kwargs):
                role = roles.get(id(sched), "hdd")
                enter("block.sched." + role)
                try:
                    out = _select(sched, *args, **kwargs)
                finally:
                    leave()
                if out[0] is not None:
                    tracer.block_dispatches[role] += 1
                    tracer.block_members[role] += len(out[0].members)
                return out

            self._patch(cls, "add", timed_add)
            self._patch(cls, "select", timed_select)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, name, had, old = self._patches.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)
        self._sched_role.clear()


_SHIM_CODE = LayerTracer.shim.__code__

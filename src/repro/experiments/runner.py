"""Parallel experiment-matrix runner with a deterministic on-disk cache.

Every experiment in this package is (or decomposes into) a matrix of
independent *cells*: one ``(experiment function, scale, seed,
config-override)`` combination that builds its own fresh
:class:`~repro.pfs.cluster.Cluster` and returns a small picklable
result.  Cells share nothing at runtime — the simulation is
deterministic per cell — so the matrix is embarrassingly parallel, the
standard shape for simulator sweeps (cf. Helix, ASPLOS 2025).

This module provides the sweep layer:

* :func:`cell` declares one cell as an import path plus keyword
  arguments (no callables cross process boundaries — workers import the
  function themselves).
* :func:`run_cells` executes a list of cells, optionally across a
  ``ProcessPoolExecutor``, and returns results **in input order**
  regardless of completion order, so serial (``jobs=1``) and parallel
  runs merge bit-identically.
* Results are cached on disk under ``.ibridge-cache/`` keyed by a
  stable hash of the cell (function path, canonicalized kwargs, the
  process-wide audit/fault-plan context, package version and a digest
  of the package's source, so an edit to any module misses).  A cache
  hit performs zero simulation steps.

Determinism contract: a cell function must derive all randomness from
its arguments (every cluster seeds its RNG streams from
``ClusterConfig.seed``), must not read mutable module state other than
the audit/fault defaults (which are part of the cache key and are
re-installed in workers), and must return plain picklable data.  Under
that contract ``run_cells(cells, jobs=N)`` returns the same bytes for
every ``N`` — asserted by ``tests/test_runner.py``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import importlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .. import __version__

#: Bump when cached results become incompatible (cell wire format or
#: engine semantics change in a result-affecting way).
#: 4: the partition count left the context token and ``ClusterConfig``
#: lost its two partitioning fields (the partitioned engine was deleted).
CACHE_SCHEMA = 4

#: Default cache location (relative to the working directory) when
#: ``REPRO_CACHE_DIR`` is unset.  Resolved lazily by
#: :func:`default_cache_dir` so a process (or test) that sets the env
#: var after this module is imported still takes effect.
DEFAULT_CACHE_DIR = ".ibridge-cache"


def default_cache_dir() -> str:
    """The cache directory to use when none is configured explicitly.

    Read from ``REPRO_CACHE_DIR`` at *call* time (not import time).
    """
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


# --------------------------------------------------------------- hashing
def stable_token(obj: Any) -> Any:
    """Canonical JSON-able form of ``obj`` for hashing.

    Handles the types experiment kwargs are made of: scalars,
    sequences, dicts, enums, and (frozen) dataclasses such as
    ``ClusterConfig``/``AuditConfig``/``FaultPlan`` members.  Floats use
    ``float.hex()`` so the key distinguishes values that ``str`` would
    collapse and round-trips exactly.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return {"__float__": obj.hex()}
    if isinstance(obj, enum.Enum):
        return {"__enum__": f"{type(obj).__module__}.{type(obj).__qualname__}",
                "value": stable_token(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": f"{type(obj).__module__}.{type(obj).__qualname__}",
                "fields": {f.name: stable_token(getattr(obj, f.name))
                           for f in dataclasses.fields(obj)}}
    if isinstance(obj, dict):
        return {"__dict__": sorted(
            (json.dumps(stable_token(k), sort_keys=True), stable_token(v))
            for k, v in obj.items())}
    if isinstance(obj, (list, tuple)):
        return [stable_token(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(stable_token(x), sort_keys=True)
                                  for x in obj)}
    raise TypeError(f"cannot build a stable cache token for {type(obj).__name__}: "
                    f"{obj!r} (pass plain data into cells)")


def stable_hash(obj: Any) -> str:
    """Hex digest of the canonical form of ``obj``."""
    blob = json.dumps(stable_token(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over the package's ``.py`` files (relative path and
    bytes, in sorted order), computed once per process: the part of a
    cell's identity that its name and arguments do not capture."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# --------------------------------------------------------------- cells
@dataclass(frozen=True)
class Cell:
    """One independent unit of the experiment matrix."""

    #: Import path ``"package.module:function"`` of a top-level callable.
    fn: str
    #: Canonically-sorted keyword arguments.
    kwargs: Tuple[Tuple[str, Any], ...]

    def resolve(self) -> Callable[..., Any]:
        mod_name, _, fn_name = self.fn.partition(":")
        if not fn_name:
            raise ValueError(f"cell fn must look like 'pkg.mod:func', got {self.fn!r}")
        return getattr(importlib.import_module(mod_name), fn_name)

    def key(self, context: Any = None) -> str:
        """Stable cache key: cell identity + run context + versions."""
        return stable_hash({
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "source": source_digest(),
            "fn": self.fn,
            "kwargs": dict(self.kwargs),
            "context": context,
        })


def cell(fn: str, **kwargs: Any) -> Cell:
    """Declare a cell (kwargs are canonically sorted for hashing)."""
    return Cell(fn=fn, kwargs=tuple(sorted(kwargs.items())))


# --------------------------------------------------------------- context
def _current_context() -> Tuple[Any, Any, Any]:
    """The process-wide defaults a cell's result depends on.

    The audit config changes event schedules (the watchdog process
    consumes heap sequence numbers), the obs config changes a result's
    ``obs_*``/``timeline_*`` extras (its timeline ticker adds heap
    entries but never reorders other events), and the fault plan
    changes behaviour outright — all must be part of the cache key and
    must be re-installed inside worker processes.
    """
    from . import common
    return (common._DEFAULT_AUDIT, common._DEFAULT_FAULT_PLAN,
            common._DEFAULT_OBS)


def _context_token(context: Tuple[Any, Any, Any]) -> Any:
    audit, plan, obs = context
    return {
        "audit": stable_token(audit),
        "fault_plan": None if plan is None else plan.to_dict(),
        "obs": stable_token(obs),
    }


def _worker_init(context: Tuple[Any, Any, Any]) -> None:
    """Install the parent's audit/fault/obs defaults in a worker."""
    from .common import (set_default_audit, set_default_fault_plan,
                         set_default_obs)
    audit, plan, obs = context
    set_default_audit(audit)
    set_default_fault_plan(plan)
    set_default_obs(obs)


def _execute(spec: Tuple[str, Tuple[Tuple[str, Any], ...]]) -> Any:
    """Worker entry point: import and run one cell."""
    fn, kwargs = spec
    return Cell(fn=fn, kwargs=kwargs).resolve()(**dict(kwargs))


# --------------------------------------------------------------- cache
# ------------------------------------------------- result serialization
def encode_result(value: Any) -> bytes:
    """Serialize one cell result to bytes (the cache's on-disk format).

    Pickle at the highest protocol — cell results are plain picklable
    data by the determinism contract, and pickle (unlike JSON) keeps
    int dict keys, tuples, and float precision exact.
    """
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(blob: bytes) -> Any:
    """Inverse of :func:`encode_result`."""
    return pickle.loads(blob)


class ResultCache:
    """Pickle-per-key on-disk cache with atomic writes.

    ``directory=None`` resolves :func:`default_cache_dir` at call time,
    so ``REPRO_CACHE_DIR`` set after import still takes effect.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory if directory is not None \
            else default_cache_dir()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".pkl")

    def get(self, key: str) -> Tuple[bool, Any]:
        try:
            with open(self._path(key), "rb") as fh:
                value = decode_result(fh.read())
        except Exception:
            # Unpickling a truncated/corrupt file can raise nearly
            # anything (ValueError, EOFError, AttributeError...); any
            # unreadable entry is simply a miss and will be rewritten.
            return False, None
        return True, value

    def put(self, key: str, value: Any) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Atomic publish: a concurrent reader sees the old file or the
        # new one, never a torn write.
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(encode_result(value))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# --------------------------------------------------------------- report
@dataclass
class MatrixReport:
    """Results (in input order) plus execution accounting."""

    results: List[Any]
    executed: int = 0
    cached: int = 0
    jobs: int = 1


# --------------------------------------------------------------- runner
def run_cells(cells: Sequence[Cell], jobs: int = 1,
              cache: Optional[bool] = True,
              cache_dir: Optional[str] = None) -> MatrixReport:
    """Execute ``cells``; return results in input order.

    ``jobs`` > 1 fans misses out over a ``ProcessPoolExecutor``;
    ``jobs=1`` executes in-process (no pickling, exact same results).
    ``cache=False`` (or ``--no-cache`` on the CLI) bypasses the on-disk
    cache entirely — nothing is read or written.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    context = _current_context()
    ctx_token = _context_token(context)
    store = ResultCache(cache_dir) if cache else None

    results: List[Any] = [None] * len(cells)
    misses: List[int] = []
    keys: List[Optional[str]] = [None] * len(cells)
    for i, c in enumerate(cells):
        if store is not None:
            keys[i] = c.key(ctx_token)
            hit, value = store.get(keys[i])
            if hit:
                results[i] = value
                continue
        misses.append(i)

    report = MatrixReport(results=results, executed=len(misses),
                          cached=len(cells) - len(misses), jobs=jobs)
    if not misses:
        return report

    if jobs == 1 or len(misses) == 1:
        for i in misses:
            results[i] = _execute((cells[i].fn, cells[i].kwargs))
    else:
        from concurrent.futures import ProcessPoolExecutor
        specs = [(cells[i].fn, cells[i].kwargs) for i in misses]
        with ProcessPoolExecutor(max_workers=min(jobs, len(misses)),
                                 initializer=_worker_init,
                                 initargs=(context,)) as pool:
            # Executor.map preserves input order, so the merge below is
            # deterministic no matter which worker finishes first.
            for i, value in zip(misses, pool.map(_execute, specs)):
                results[i] = value

    if store is not None:
        for i in misses:
            store.put(keys[i], results[i])
    return report


# ------------------------------------------------------- sweep defaults
#: Process-wide sweep settings installed by the CLI (``--jobs``,
#: ``--no-cache``, ``--cache-dir``) so every experiment's internal
#: matrix picks them up without threading parameters through ``run()``.
_DEFAULT_JOBS = 1
_DEFAULT_CACHE: bool = False
_DEFAULT_CACHE_DIR: Optional[str] = None


def set_sweep_defaults(jobs: int = 1, cache: bool = False,
                       cache_dir: Optional[str] = None) -> None:
    """Install the sweep execution defaults (CLI/tests)."""
    global _DEFAULT_JOBS, _DEFAULT_CACHE, _DEFAULT_CACHE_DIR
    _DEFAULT_JOBS = max(1, int(jobs))
    _DEFAULT_CACHE = bool(cache)
    _DEFAULT_CACHE_DIR = cache_dir


def sweep(cells: Sequence[Cell], jobs: Optional[int] = None,
          cache: Optional[bool] = None,
          cache_dir: Optional[str] = None) -> List[Any]:
    """Run a matrix under the installed defaults (experiment helper).

    Experiments call this for their internal loops; with no CLI flags it
    degrades to in-process, uncached, loop-order execution — exactly the
    behaviour of the historical serial code.
    """
    return run_cells(cells,
                     jobs=_DEFAULT_JOBS if jobs is None else jobs,
                     cache=_DEFAULT_CACHE if cache is None else cache,
                     cache_dir=_DEFAULT_CACHE_DIR if cache_dir is None else cache_dir
                     ).results

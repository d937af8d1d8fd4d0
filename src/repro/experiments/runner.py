"""Parallel experiment-matrix runner.

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
* :func:`sweep` executes a list of cells, optionally across a
  ``ProcessPoolExecutor``, and returns results **in input order**
  regardless of completion order, so serial (``jobs=1``) and parallel
  runs merge bit-identically.  Every result comes from a simulation:
  nothing is stored between calls.

Determinism contract: a cell function must derive all randomness from
its arguments (every cluster seeds its RNG streams from
``ClusterConfig.seed``), must not read mutable module state other than
the audit/fault/obs defaults (which are re-installed in workers), and
must return plain picklable data.  Under that contract
``sweep(cells, jobs=N)`` returns the same bytes for every ``N`` —
asserted by ``tests/test_runner.py``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple


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


def cell(fn: str, **kwargs: Any) -> Cell:
    """Declare a cell (kwargs are canonically sorted)."""
    return Cell(fn=fn, kwargs=tuple(sorted(kwargs.items())))


# --------------------------------------------------------------- context
def _current_context() -> Tuple[Any, Any, Any]:
    """The process-wide defaults a cell's result depends on.

    The audit config changes event schedules (the watchdog process
    consumes heap sequence numbers), the obs config changes a result's
    ``obs_*``/``timeline_*`` extras (its timeline ticker adds heap
    entries but never reorders other events), and the fault plan
    changes behaviour outright — all must be re-installed inside worker
    processes.
    """
    from . import common
    return (common._DEFAULT_AUDIT, common._DEFAULT_FAULT_PLAN,
            common._DEFAULT_OBS)


def _worker_init(context: Tuple[Any, Any, Any]) -> None:
    """Install the parent's audit/fault/obs defaults in a worker."""
    from .common import (set_default_audit, set_default_fault_plan,
                         set_default_obs)
    audit, plan, obs = context
    set_default_audit(audit)
    set_default_fault_plan(plan)
    set_default_obs(obs)


def _execute(c: Cell) -> Any:
    """Worker entry point: import and run one cell."""
    return c.resolve()(**dict(c.kwargs))


# --------------------------------------------------------------- runner
#: Process-wide worker count installed by the CLI (``--jobs``) so every
#: experiment's internal matrix picks it up without threading a
#: parameter through ``run()``.
_DEFAULT_JOBS = 1


def set_sweep_defaults(jobs: int = 1) -> None:
    """Install the sweep's default worker count (CLI/tests)."""
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = max(1, int(jobs))


def sweep(cells: Sequence[Cell], jobs: Optional[int] = None) -> List[Any]:
    """Execute ``cells``; return their results in input order.

    ``jobs=None`` reads the installed default (1 unless the CLI set
    ``--jobs``).  ``jobs`` > 1 fans the cells out over a
    ``ProcessPoolExecutor``; one job or one cell executes in-process
    (no pickling, exact same results).
    """
    if jobs is None:
        jobs = _DEFAULT_JOBS
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(cells) <= 1:
        return [_execute(c) for c in cells]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells)),
                             initializer=_worker_init,
                             initargs=(_current_context(),)) as pool:
        # Executor.map preserves input order, so the merge is
        # deterministic no matter which worker finishes first.
        return list(pool.map(_execute, cells))

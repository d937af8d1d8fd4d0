"""Tests for the parallel experiment-matrix runner (repro.experiments.runner).

The property the whole design hangs on is **determinism**:
``sweep(cells, jobs=N)`` returns bit-identical results for every ``N``
(cells are self-contained, seq-tie-broken simulations; the pool merge
preserves input order).
"""

import concurrent.futures
import dataclasses
import enum
import warnings

import pytest

from repro.config import AuditConfig
from repro.experiments import common as exp_common
from repro.experiments import fig2
from repro.experiments.common import warn_if_oversubscribed
from repro.experiments.runner import (Cell, cell, set_sweep_defaults,
                                      stable_hash, stable_token, sweep)


@pytest.fixture(autouse=True)
def _restore_sweep_defaults():
    yield
    set_sweep_defaults()  # jobs=1


# A module-level cell function: workers import it by path.
def _probe_cell(a, b=1):
    return {"sum": a + b, "product": a * b}


PROBE = f"{__name__}:_probe_cell"


# -- stable hashing ----------------------------------------------------
class _Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    y: float


def test_stable_hash_distinguishes_close_floats():
    assert stable_hash(0.1) != stable_hash(0.1 + 1e-17) or 0.1 == 0.1 + 1e-17
    assert stable_hash(1.0) != stable_hash(1)  # float vs int
    assert stable_hash(0.30000000000000004) != stable_hash(0.3)


def test_stable_hash_is_order_insensitive_for_dicts_and_sets():
    assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
    assert stable_hash({3, 1, 2}) == stable_hash({2, 3, 1})
    # ...but order-sensitive for sequences.
    assert stable_hash([1, 2]) != stable_hash([2, 1])


def test_stable_hash_covers_dataclasses_and_enums():
    assert stable_hash(_Point(1.0, 2.0)) == stable_hash(_Point(1.0, 2.0))
    assert stable_hash(_Point(1.0, 2.0)) != stable_hash(_Point(2.0, 1.0))
    assert stable_hash(_Colour.RED) != stable_hash(_Colour.BLUE)
    assert stable_hash(AuditConfig()) == stable_hash(AuditConfig())
    assert stable_hash(AuditConfig()) != stable_hash(AuditConfig(enabled=True))


def test_stable_token_rejects_arbitrary_objects():
    with pytest.raises(TypeError):
        stable_token(object())


# -- execution ---------------------------------------------------------
def test_sweep_preserves_input_order_serial_and_parallel():
    cells = [cell(PROBE, a=i, b=i + 1) for i in range(6)]
    serial = sweep(cells, jobs=1)
    parallel = sweep(cells, jobs=3)
    assert serial == parallel
    assert [r["sum"] for r in serial] == [2 * i + 1 for i in range(6)]


def test_sweep_rejects_bad_jobs_and_bad_fn_path():
    with pytest.raises(ValueError):
        sweep([cell(PROBE, a=1)], jobs=0)
    with pytest.raises(ValueError):
        Cell(fn="not.a.path.no.colon", kwargs=()).resolve()


def test_sweep_uses_installed_defaults(monkeypatch):
    cells = [cell(PROBE, a=i) for i in range(3)]
    seen = []

    class _Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _Pool)
    serial = sweep(cells)
    assert seen == []  # the default is one job: in-process
    set_sweep_defaults(jobs=2)
    assert sweep(cells) == serial
    assert seen == [2]
    # An explicit count beats the installed default.
    assert sweep(cells, jobs=1) == serial
    assert seen == [2]
    set_sweep_defaults(jobs=0)  # clamped to one job
    assert sweep(cells) == serial
    assert seen == [2]


# -- the headline property: fig2 serial == parallel --------------------
@pytest.mark.parametrize("run, kwargs, n_values", [
    (fig2.run_fig2a, dict(sizes_kib=(64, 65), procs=(2, 4)), 4),
    (fig2.run_fig2b, dict(offsets_kib=(0, 10), procs=(2, 4)), 4),
    (fig2.run_fig2cde, dict(nprocs=4), 6),
], ids=["fig2a", "fig2b", "fig2cde"])
def test_fig2_values_identical_serial_vs_parallel(run, kwargs, n_values):
    """Each fig2 sub-run at --jobs 1 and --jobs 4 gives bit-identical values."""
    set_sweep_defaults(jobs=1)
    serial = run(scale=0.001, **kwargs)
    set_sweep_defaults(jobs=4)
    parallel = run(scale=0.001, **kwargs)
    assert serial.values == parallel.values
    assert serial.rows == parallel.rows
    assert len(serial.values) == n_values


def test_oversubscription_warns_once(monkeypatch):
    monkeypatch.setattr(exp_common, "_oversubscribed_warned", False)
    import os
    cpus = os.cpu_count() or 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert warn_if_oversubscribed(jobs=cpus + 1) is True
        assert warn_if_oversubscribed(jobs=cpus + 1) is False
    assert len(caught) == 1

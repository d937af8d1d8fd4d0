"""Tests for the parallel experiment-matrix runner (repro.experiments.runner).

The two properties the whole design hangs on:

* **Determinism** — ``run_cells(cells, jobs=N)`` returns bit-identical
  results for every ``N`` (cells are self-contained, seq-tie-broken
  simulations; the pool merge preserves input order).
* **Cache soundness** — a warm cache replays results without a single
  simulation step, and anything that could change a result (arguments,
  audit config, fault plan, package version) changes the cache key.
"""

import dataclasses
import enum
import warnings

import pytest

from repro.config import AuditConfig
from repro.experiments import common as exp_common
from repro.experiments import fig2
from repro.experiments.common import warn_if_oversubscribed
from repro.experiments.runner import (Cell, ResultCache, cell, run_cells,
                                      set_sweep_defaults, stable_hash,
                                      stable_token, sweep)
from repro.sim import Environment
from repro.units import KiB


@pytest.fixture(autouse=True)
def _restore_sweep_defaults():
    yield
    set_sweep_defaults()  # jobs=1, uncached


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


def test_cell_key_depends_on_args_and_context():
    c1 = cell(PROBE, a=1, b=2)
    c2 = cell(PROBE, a=1, b=3)
    assert c1.key() != c2.key()
    assert c1.key() == cell(PROBE, b=2, a=1).key()  # kwarg order
    assert c1.key({"audit": None}) != c1.key({"audit": "on"})


# -- execution ---------------------------------------------------------
def test_run_cells_preserves_input_order_serial_and_parallel():
    cells = [cell(PROBE, a=i, b=i + 1) for i in range(6)]
    serial = run_cells(cells, jobs=1, cache=False)
    parallel = run_cells(cells, jobs=3, cache=False)
    assert serial.results == parallel.results
    assert [r["sum"] for r in serial.results] == [2 * i + 1 for i in range(6)]
    assert serial.executed == parallel.executed == 6


def test_run_cells_rejects_bad_jobs_and_bad_fn_path():
    with pytest.raises(ValueError):
        run_cells([cell(PROBE, a=1)], jobs=0)
    with pytest.raises(ValueError):
        Cell(fn="not.a.path.no.colon", kwargs=()).resolve()


def test_sweep_uses_installed_defaults(tmp_path):
    cells = [cell(PROBE, a=i) for i in range(3)]
    set_sweep_defaults(jobs=1, cache=True, cache_dir=str(tmp_path))
    first = sweep(cells)
    second = sweep(cells)
    assert first == second
    # Explicit overrides beat the installed defaults.
    assert sweep(cells, cache=False) == first


# -- the headline property: fig2 serial == parallel --------------------
def test_fig2_values_identical_serial_vs_parallel():
    """fig2a at --jobs 1 and --jobs 4 produce bit-identical values."""
    kwargs = dict(scale=0.001, sizes_kib=(64, 65), procs=(2, 4))
    set_sweep_defaults(jobs=1, cache=False)
    serial = fig2.run_fig2a(**kwargs)
    set_sweep_defaults(jobs=4, cache=False)
    parallel = fig2.run_fig2a(**kwargs)
    assert serial.values == parallel.values
    assert serial.rows == parallel.rows
    assert len(serial.values) == 4


# -- cache soundness ---------------------------------------------------
def test_cache_hit_performs_zero_simulation_steps(tmp_path, monkeypatch):
    cells = [cell("repro.experiments.fig2:_cell_throughput",
                  scale=0.001, nprocs=2, size=65 * KiB)]
    cold = run_cells(cells, jobs=1, cache=True, cache_dir=str(tmp_path))
    assert cold.executed == 1 and cold.cached == 0

    # Any attempt to simulate now is an error: a warm hit must replay
    # the pickled result without building an engine at all.
    def _boom(self, *args, **kwargs):
        raise AssertionError("cache hit ran the simulator")

    monkeypatch.setattr(Environment, "run", _boom)
    monkeypatch.setattr(Environment, "step", _boom)
    warm = run_cells(cells, jobs=1, cache=True, cache_dir=str(tmp_path))
    assert warm.executed == 0 and warm.cached == 1
    assert warm.results == cold.results


def test_cache_key_includes_audit_and_fault_context(tmp_path):
    cells = [cell(PROBE, a=5)]
    run_cells(cells, jobs=1, cache=True, cache_dir=str(tmp_path))
    # Flipping the process-wide audit default must miss the cache (the
    # audit watchdog consumes seq numbers, changing schedules).
    old = exp_common._DEFAULT_AUDIT
    exp_common.set_default_audit(AuditConfig(enabled=True))
    try:
        second = run_cells(cells, jobs=1, cache=True,
                           cache_dir=str(tmp_path))
    finally:
        exp_common.set_default_audit(old)
    assert second.executed == 1 and second.cached == 0


def test_cache_key_includes_obs_context(tmp_path):
    from repro.config import ObsConfig
    cells = [cell(PROBE, a=7)]
    run_cells(cells, jobs=1, cache=True, cache_dir=str(tmp_path))
    # Flipping the process-wide obs default must miss the cache (the
    # metrics sampler is a sim process, consuming heap seq numbers).
    old = exp_common._DEFAULT_OBS
    exp_common.set_default_obs(ObsConfig(enabled=True))
    try:
        second = run_cells(cells, jobs=1, cache=True,
                           cache_dir=str(tmp_path))
        assert second.executed == 1 and second.cached == 0
        # Same obs context again: warm hit.
        third = run_cells(cells, jobs=1, cache=True,
                          cache_dir=str(tmp_path))
        assert third.executed == 0 and third.cached == 1
    finally:
        exp_common.set_default_obs(old)


def test_result_cache_roundtrip_and_torn_write_resistance(tmp_path):
    store = ResultCache(str(tmp_path))
    assert store.get("deadbeef") == (False, None)
    store.put("deadbeef", {"x": [1, 2, 3]})
    assert store.get("deadbeef") == (True, {"x": [1, 2, 3]})
    # A corrupt cache file reads as a miss, not an error.
    path = store._path("deadbeef")
    with open(path, "wb") as fh:
        fh.write(b"\x80garbage")
    hit, _ = store.get("deadbeef")
    assert hit is False


def test_default_cache_dir_reads_env_at_call_time(tmp_path, monkeypatch):
    """REPRO_CACHE_DIR set *after* import must still take effect."""
    from repro.experiments.runner import default_cache_dir

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert default_cache_dir() == ".ibridge-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == str(tmp_path / "elsewhere")
    # ResultCache() with no directory resolves lazily too
    store = ResultCache()
    store.put("aa11", 42)
    assert (tmp_path / "elsewhere" / "aa" / "aa11.pkl").exists()


def test_encode_decode_result_roundtrip():
    from repro.experiments.runner import decode_result, encode_result

    value = {"throughput": 123.4, "rows": [(1, 2), (3, 4)]}
    blob = encode_result(value)
    assert isinstance(blob, bytes)
    assert decode_result(blob) == value


def test_cell_key_and_null_context_token(tmp_path):
    from repro.experiments.runner import (cell_key, default_context_token,
                                          null_context_token)

    c = cell(PROBE, a=1)
    # with no process-wide audit/fault/obs defaults, the default
    # context IS the null context — the service's shared-cache contract
    assert default_context_token() == null_context_token()
    assert cell_key(c) == c.key(default_context_token())
    assert cell_key(c, null_context_token()) == cell_key(c)


def test_oversubscription_warns_once(monkeypatch):
    monkeypatch.setattr(exp_common, "_oversubscribed_warned", False)
    import os
    cpus = os.cpu_count() or 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert warn_if_oversubscribed(jobs=cpus + 1) is True
        assert warn_if_oversubscribed(jobs=cpus + 1) is False
    assert len(caught) == 1

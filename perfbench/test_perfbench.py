"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import cells  # noqa: E402
import pins  # noqa: E402
import run  # noqa: E402
from layertrace import LAYERS, LayerTracer, src_lines  # noqa: E402
from repro import Cluster, ClusterConfig, MpiIoTest, run_workload  # noqa: E402
from repro.errors import RequestTimeoutError  # noqa: E402
from repro.sim.parallel import run_digest  # noqa: E402
from repro.units import KiB, MiB  # noqa: E402


def _traced(tracer, cfg, workload, warm_runs=0):
    """Run one cell, optionally under ``tracer``; returns (cluster, result)."""
    if tracer is not None:
        tracer.install()
    try:
        cluster = Cluster(cfg)
        if tracer is not None:
            tracer.start()
        result = run_workload(cluster, workload, warm_runs=warm_runs)
        if tracer is not None:
            tracer.stop()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return cluster, result


def _tiny(seed=0, ibridge=True):
    cfg = ClusterConfig(num_servers=4, seed=seed)
    if ibridge:
        cfg = cfg.with_ibridge(ssd_partition=8 * MiB)
    return cfg, MpiIoTest(nprocs=8, request_size=65 * KiB,
                          file_size=8 * 65 * KiB * 4)


def test_traced_run_reproduces_the_untraced_digest():
    tracer = LayerTracer()
    _, traced = _traced(tracer, *_tiny(), warm_runs=1)
    _, plain = _traced(None, *_tiny(), warm_runs=1)
    assert run_digest(traced) == run_digest(plain)
    for layer in ("sim", "pfs.client", "pfs.server", "net", "core.manager",
                  "core.mapping", "block.queue", "block.sched.hdd",
                  "block.sched.ssd", "devices.hdd", "devices.ssd"):
        assert tracer.calls[layer] > 0, layer


def test_layer_self_times_sum_exactly_to_the_traced_wall_time():
    tracer = LayerTracer()
    _traced(tracer, *_tiny(), warm_runs=1)
    assert tracer.wall_ns > 0
    assert sum(tracer.self_ns.values()) == tracer.wall_ns
    assert set(tracer.self_ns) <= set(LAYERS)


def test_failed_events_pass_through_the_shim_unchanged():
    # Every sub-request times out at once, so the client processes and
    # then the rank bodies are resumed by ``throw`` with a failed event.
    def outcome(tracer):
        cfg = ClusterConfig(num_servers=4).with_retry(timeout=1e-6,
                                                      max_retries=0)
        wl = MpiIoTest(nprocs=4, request_size=65 * KiB,
                       file_size=4 * 65 * KiB * 2)
        if tracer is not None:
            tracer.install()
        try:
            cluster = Cluster(cfg)
            with pytest.raises(RequestTimeoutError) as info:
                run_workload(cluster, wl)
        finally:
            if tracer is not None:
                tracer.uninstall()
        # Request ids count up across runs in one process, so the error
        # message is not compared; ``run_digest`` excludes ids likewise.
        clients = cluster._clients.values()
        return (type(info.value), cluster.env.now, cluster.env._seq,
                sum(c.failures for c in clients),
                sum(c.timeouts for c in clients))

    tracer = LayerTracer()
    traced = outcome(tracer)
    assert traced == outcome(None)
    assert traced[3] > 0
    assert tracer.calls["pfs.client"] > 0


def test_uninstall_restores_every_patched_attribute():
    from layertrace import SCHED_CLASSES, SYNC_TARGETS
    import importlib

    def snapshot():
        classes = [getattr(importlib.import_module(m), c)
                   for m, c, *_ in SYNC_TARGETS + SCHED_CLASSES]
        from repro.sim.core import Environment
        classes.append(Environment)
        return {cls: dict(vars(cls)) for cls in classes}

    before = snapshot()
    tracer = LayerTracer()
    tracer.install()
    tracer.uninstall()
    assert snapshot() == before


def test_seed_reproduces_and_changes_the_digest():
    cell = cells.CELLS["stock_read"]
    first, again, other = (run.one_rep(cell, s) for s in (5, 5, 6))
    assert first["error"] is None
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]
    assert first["outputs"]["subrequests"] == other["outputs"]["subrequests"]


def test_pin_checks_accept_pins_and_reject_drift():
    table = pins.load()
    entry = table["stock_read"]
    seed, pinned = next(iter(entry["seeds"].items()))
    outputs = dict({k: pinned[k] for k in pins.OUTPUTS},
                   **{k: entry[k] for k in pins.COUNTS})
    assert pins.check(table, "stock_read", int(seed), pinned["digest"],
                      outputs) == []
    assert pins.check(table, "stock_read", int(seed), "0" * 64, outputs)
    assert pins.check(table, "stock_read", 10 ** 6, "0" * 64, outputs) == []
    assert pins.check(table, "stock_read", 10 ** 6, "0" * 64,
                      dict(outputs, mib_s=outputs["mib_s"] * 10))
    assert pins.check(table, "stock_read", 10 ** 6, "0" * 64,
                      dict(outputs, parents=outputs["parents"] + 1))


def test_src_lines_cover_every_layer():
    counts = src_lines(os.path.join(os.path.dirname(HERE), "src"))
    assert all(counts[layer] > 0 for layer in LAYERS)
    assert counts["total"] > sum(counts[layer] for layer in LAYERS) * 0.5


def test_run_prints_the_result_line_with_every_metric():
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "stock_read", "--seed", "3",
                         "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = {name for name, _unit in run.per_layer_names()}
    assert set(result["metrics"]) == names
    assert result["metrics"]["core.manager.calls"]["value"] == 0
    assert result["metrics"]["devices.ftl.calls"]["value"] == 0
    assert result["metrics"]["obs.calls"]["value"] == 0
    assert result["metrics"]["audit.calls"]["value"] == 0

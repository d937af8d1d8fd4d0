"""The repository benchmark: four simulator cells, timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ibridge_mix --seed 3 --seconds 25 --trace 0

Each run builds the workload's cell (``cells.py``) from ``--seed`` and
runs it repeatedly on the serial engine, in this one process, for
``--seconds`` seconds after one warm-up repetition.  Every repetition
builds a fresh cluster with the seek-profile cache cleared, so
``setup_s`` is a cold build.  Host times are scaled by the calibration
kernel timed between repetitions (``calibrate.py``), which takes out
the host's own swings in speed.

``--trace 0`` reports the end-to-end metrics, each the median over the
measured repetitions.  ``--trace 1`` alternates untraced and traced
repetitions (``layertrace.py``) and reports the per-layer metrics of
the traced repetition with the median wall time, plus the tracing
overhead.  Every repetition, traced or not, is checked against
``pins.json`` and against the warm-up's ``run_digest``; a repetition
that raises or differs counts all its parent requests as failed.

Standard output ends with the layer table (trace runs) and one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (run metadata, every raw per-repetition value and the order the
repetitions ran in) is written to ``.perfbench/`` under the repository
root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Measured repetitions a run makes at least, whatever ``--seconds``.
MIN_REPS = 3
#: Extra cold cluster builds timed before the repetitions, so the
#: ``setup_s`` median rests on many samples even for slow cells.
SETUP_BUILDS = 20


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile_ms(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    import numpy as np
    return float(np.percentile(values, q)) * 1e3


def cold_setup_s(cell, seed: int) -> float:
    """Host seconds of one cold ``Cluster`` build (discarded)."""
    from repro.pfs import cluster as cluster_mod
    from repro.pfs.cluster import Cluster

    cfg, _workload = cell.make(seed)
    cluster_mod._profile_cache.clear()
    t0 = time.perf_counter()
    Cluster(cfg)
    return time.perf_counter() - t0


def one_rep(cell, seed: int, tracer=None) -> Dict[str, Any]:
    """Build the cell's cluster and run it once; never raises.

    Returns the host times, the simulated outputs checked against the
    pins, and (with ``tracer``) the per-layer figures.
    """
    from repro.pfs import cluster as cluster_mod
    from repro.pfs.cluster import Cluster
    from repro.sim.parallel import run_digest
    from repro.workloads.base import run_workload

    cfg, workload = cell.make(seed)
    rep: Dict[str, Any] = {"traced": tracer is not None, "error": None,
                           "failures": 0, "digest": None}
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        cluster_mod._profile_cache.clear()
        t0 = time.perf_counter()
        cluster = Cluster(cfg)
        rep["setup_s"] = time.perf_counter() - t0
        seq0 = cluster.env._seq
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        result = run_workload(cluster, workload, warm_runs=cell.warm_runs)
        rep["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.stop()
            rep["wall_s"] = tracer.wall_ns / 1e9
    except Exception as exc:  # a failing repetition is a benchmark result
        rep["error"] = f"{type(exc).__name__}: {exc}"
        return rep
    finally:
        if tracer is not None:
            tracer.uninstall()

    clients = list(cluster._clients.values())
    failures = sum(c.failures for c in clients)
    lat = result.latency_stats()
    subreqs = sum(s.stats.jobs for s in cluster.servers)
    rep.update(
        failures=failures,
        digest=run_digest(result),
        events=cluster.env._seq - seq0,
        outputs={
            "mib_s": result.throughput_mib_s,
            "ssd_fraction": result.ssd_fraction,
            "p50_ms": lat.p50 * 1e3,
            "p99_ms": lat.p99 * 1e3,
            "parents": len(result.requests),
            "parents_all": sum(len(c.completed) for c in clients) + failures,
            "subrequests": subreqs,
        })
    if tracer is not None:
        rep["layers"] = _layer_figures(cluster, result, tracer, rep)
    return rep


def _layer_figures(cluster, result, tracer, rep) -> Dict[str, Any]:
    """Per-layer figures of one traced repetition."""
    subreqs = rep["outputs"]["subrequests"]
    stats = cluster.ibridge_stats()
    makespan = result.makespan or 1.0
    ssds = [s.ssd for s in cluster.servers]
    hdds = [u.hdd for s in cluster.servers for u in s.disks]
    ftls = [d.ftl for d in ssds if d.ftl is not None]
    out: Dict[str, Any] = {
        "self_ns": dict(tracer.self_ns),
        "calls": dict(tracer.calls),
        "wall_ns": tracer.wall_ns,
        "sim.events": rep["events"],
        "sim.ns_per_event": tracer.self_ns["sim"] / max(1, rep["events"]),
        "pfs.client.fanout": tracer.split_subs / max(1, tracer.split_parents),
        "pfs.client.retries": sum(c.retries
                                  for c in cluster._clients.values()),
        "net.messages": cluster.network.stats.messages,
        "core.manager.admit_ratio": (tracer.mapping_inserts
                                     / tracer.ibridge_candidates
                                     if tracer.ibridge_candidates else 0.0),
        "core.manager.ssd_fraction": result.ssd_fraction,
        "core.manager.rejected_admissions":
            stats.rejected_admissions if stats else 0,
        "devices.hdd.busy_frac": _median(
            [d.stats.busy_time / makespan for d in hdds]),
        "devices.ssd.busy_frac": _median(
            [d.stats.busy_time / makespan for d in ssds]),
        "devices.ftl.write_amplification": (
            sum(f.write_amplification for f in ftls) / len(ftls)
            if ftls else 0.0),
        "devices.ftl.gc_stall_s": sum(d.gc_stall_time for d in ssds),
        "obs.spans": result.extra.get("obs_spans", 0.0),
    }
    for role in ("hdd", "ssd"):
        dispatches = tracer.block_dispatches[role]
        out[f"block.{role}.merge_ratio"] = (
            tracer.block_members[role] / dispatches if dispatches else 0.0)
        waits = [r.dispatch_time - r.submit_time
                 for r in tracer.block_requests[role]
                 if r.dispatch_time is not None]
        out[f"block.{role}.wait_ms_p50"] = _percentile_ms(waits, 50)
        out[f"block.{role}.wait_ms_p99"] = _percentile_ms(waits, 99)
    out["self_ns_per_subreq"] = {
        layer: ns / max(1, subreqs) for layer, ns in tracer.self_ns.items()}
    return out


# ---------------------------------------------------------------- metrics
END_TO_END = (("wall_s", "s"), ("subreq_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))

#: Layer-specific per-layer metrics and their units.
LAYER_EXTRAS = (
    ("sim.events", "count"), ("sim.ns_per_event", "ns"),
    ("pfs.client.fanout", "ratio"), ("pfs.client.retries", "count"),
    ("net.messages", "count"),
    ("core.manager.admit_ratio", "ratio"),
    ("core.manager.ssd_fraction", "ratio"),
    ("core.manager.rejected_admissions", "count"),
    ("block.hdd.merge_ratio", "ratio"), ("block.ssd.merge_ratio", "ratio"),
    ("block.hdd.wait_ms_p50", "ms"), ("block.hdd.wait_ms_p99", "ms"),
    ("block.ssd.wait_ms_p50", "ms"), ("block.ssd.wait_ms_p99", "ms"),
    ("devices.hdd.busy_frac", "ratio"), ("devices.ssd.busy_frac", "ratio"),
    ("devices.ftl.write_amplification", "ratio"),
    ("devices.ftl.gc_stall_s", "s"),
    ("obs.spans", "count"),
    ("bench.trace_overhead_pct", "%"), ("bench.failed_frac", "ratio"),
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    from layertrace import LAYERS
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.self_ns_per_subreq", "ns"),
                  (f"{layer}.calls", "count"),
                  (f"{layer}.src_lines", "lines")]
    names.append(("total.src_lines", "lines"))
    return names + list(LAYER_EXTRAS)


def layer_table(figures: Dict[str, Any], src: Dict[str, int]) -> str:
    """Layers sorted by self ns per sub-request, with share and calls."""
    from layertrace import LAYERS
    wall = figures["wall_ns"] or 1
    rows = sorted(LAYERS, key=lambda l: -figures["self_ns"].get(l, 0))
    lines = [f"{'layer':20s} {'ns/subreq':>12s} {'share':>7s} "
             f"{'calls':>10s} {'src_lines':>9s}"]
    for layer in rows:
        ns = figures["self_ns"].get(layer, 0)
        lines.append(
            f"{layer:20s} {figures['self_ns_per_subreq'].get(layer, 0.0):12.1f}"
            f" {100.0 * ns / wall:6.2f}% {figures['calls'].get(layer, 0):10d}"
            f" {src[layer]:9d}")
    lines.append(f"{'(traced wall)':20s} {wall / 1e6:10.1f} ms")
    return "\n".join(lines)


# ---------------------------------------------------------------- driver
def _metadata(args) -> Dict[str, Any]:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for fname in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, fname), "rb") as fh:
                digest.update(fname.encode() + fh.read())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "setup": "cold: seek-profile cache cleared before every build",
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import calibrate
    import pins as pinning
    from cells import CELLS
    from layertrace import LayerTracer, src_lines

    cell = CELLS.get(args.workload)
    if cell is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(CELLS)}", file=sys.stderr)
        return 2
    pins = pinning.load()
    meta = _metadata(args)

    reps: List[Dict[str, Any]] = []

    def record(rep: Dict[str, Any], kind: str) -> None:
        rep["kind"] = kind
        problems = [rep["error"]] if rep["error"] else []
        if not problems:
            if rep["failures"]:
                problems.append(f"{rep['failures']} client give-ups")
            if reps and reps[0]["digest"] and rep["digest"] != reps[0]["digest"]:
                problems.append("run_digest differs from the warm-up's")
            problems += pinning.check(pins, cell.name, args.seed,
                                      rep["digest"], rep["outputs"])
        rep["problems"] = problems
        reps.append(rep)

    # The calibration kernel runs between repetitions; each host time is
    # scaled by the mean of the kernel times on either side of it.
    kernel = calibrate.kernel_s()

    def calibrated(run_once):
        nonlocal kernel
        before = kernel
        out = run_once()
        kernel = calibrate.kernel_s()
        return out, calibrate.scale((before + kernel) / 2)

    rep, scale = calibrated(lambda: one_rep(cell, args.seed))
    rep["scale"] = scale
    record(rep, "warmup")
    setups, scale = calibrated(lambda: [cold_setup_s(cell, args.seed)
                                        for _ in range(SETUP_BUILDS)])
    setups = [s * scale for s in setups]
    deadline = time.perf_counter() + args.seconds
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    while True:
        for kind in kinds:
            tracer = LayerTracer() if kind == "traced" else None
            rep, scale = calibrated(lambda: one_rep(cell, args.seed, tracer))
            rep["scale"] = scale
            record(rep, kind)
        measured = [r for r in reps if r["kind"] == "untraced"]
        if time.perf_counter() >= deadline and len(measured) >= MIN_REPS:
            break
        if args.trace:
            kinds = kinds[::-1]   # alternate which kind goes first

    pin = pins.get(cell.name, {})
    attempted = failed = 0
    for rep in reps:
        parents = (rep["outputs"]["parents_all"] if rep.get("outputs")
                   else pin.get("parents_all", 1))
        attempted += parents
        failed += parents if rep["problems"] else 0
    correct = failed == 0

    ok = [r for r in reps if not r["problems"]]
    for r in ok:
        r["wall_ref_s"] = r["wall_s"] * r["scale"]
        r["setup_ref_s"] = r["setup_s"] * r["scale"]
    untraced = [r for r in ok if r["kind"] == "untraced"]
    src = src_lines(SRC)
    metrics: Dict[str, Dict[str, Any]] = {}
    values: Dict[str, float] = {}
    if not args.trace:
        values = {
            "wall_s": _median([r["wall_ref_s"] for r in untraced]),
            "subreq_per_s": _median([r["outputs"]["subrequests"]
                                     / r["wall_ref_s"] for r in untraced]),
            "setup_s": _median(setups + [r["setup_ref_s"] for r in ok
                                         if r["kind"] != "warmup"]),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        traced = sorted((r for r in ok if r["kind"] == "traced"),
                        key=lambda r: r["wall_ref_s"])
        figures = traced[len(traced) // 2]["layers"] if traced else None
        if figures is not None:
            for layer in src:
                values[f"{layer}.src_lines"] = src[layer]
            for name, _unit in per_layer_names():
                layer, _, what = name.rpartition(".")
                if what == "self_ns_per_subreq":
                    values[name] = figures["self_ns_per_subreq"].get(layer, 0.0)
                elif what == "calls":
                    values[name] = figures["calls"].get(layer, 0)
                elif name in figures:
                    values[name] = figures[name]
            u_wall = _median([r["wall_ref_s"] for r in untraced])
            t_wall = _median([r["wall_ref_s"] for r in traced])
            values["bench.trace_overhead_pct"] = (
                100.0 * (t_wall / u_wall - 1.0) if u_wall else 0.0)
            print(f"{cell.name} (seed {args.seed}): per-layer host time of "
                  f"the median traced repetition")
            print(layer_table(figures, src))
        values["bench.failed_frac"] = failed / attempted if attempted else 1.0
        for name, unit in per_layer_names():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    out_path = os.path.join(
        ROOT, ".perfbench",
        f"{cell.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "order": [r["kind"] for r in reps],
                   "reps": reps, "setup_builds_s": setups,
                   "src_lines": src, "metrics": metrics,
                   "correct": correct, "attempted": attempted,
                   "failed": failed}, fh, indent=1, default=str)
    for rep in reps:
        for problem in rep["problems"]:
            print(f"incorrect ({rep['kind']}): {problem}", file=sys.stderr)
    print(f"record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Incremental audit vs the reference audit: same verdicts, same bugs.

The auditor's per-mutation checks screen only what each mutation
touched and escalate to a full recount on any mismatch (see
``repro.audit.invariants``).  The *reference* mode makes every check a
full recount, which is what every check was before the screens existed;
it is reached here by patching the single "full recount due?"
predicate.  Every case runs both modes non-strict over the same
simulation (the auditor is read-only, so the runs are identical) and
requires the same first violation — check, event, simulated time and
message — and the same set of violated checks.

The injected bugs are source mutants of the audited code: one line of
the real method dropped or rewritten, compiled in the method's own
module, so each one is the slip a refactor could make.
"""

import dataclasses
import inspect
import itertools
import json
import os
import textwrap

import pytest

from repro.audit.invariants import ManagerAuditor
from repro.chaos.episode import run_episode
from repro.config import ServerConfig
from repro.core import mapping
from repro.core.logstore import LogStore
from repro.core.manager import IBridgeManager
from repro.core.mapping import MappingTable
from repro.core.partition import PartitionManager
from repro.devices import Op
from repro.devices.ftl import FlashTranslationLayer
from repro.errors import ReproError
from repro.experiments.common import base_config, file_bytes
from repro.pfs.cluster import Cluster
from repro.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.btio import BTIO
from repro.workloads.composite import CompositeWorkload
from repro.workloads.mpi_io_test import MpiIoTest

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "chaos-corpus")


# ------------------------------------------------------------------ cells
def gc_cell(seed, partition=2 * MiB, disks=1, drain=True):
    """The GC study's stagger cell: 96 KiB unaligned writes on a small
    FTL drive.  A 1 MiB partition is short enough that the log cleaner
    runs (seeds 5, 11 and 15 race it against overwrites).  Without a
    drain between passes, each pass supersedes the last one's dirty
    entries."""
    size = 96 * KiB
    wl = MpiIoTest(nprocs=16, request_size=size,
                   file_size=file_bytes(0.0025, 16, size), op=Op.WRITE)
    cfg = base_config().with_ibridge(ssd_partition=partition,
                                     fragment_threshold=48 * KiB)
    ssd = dataclasses.replace(
        cfg.ssd, capacity=disks * (2 * partition + 2 * MiB),
        ftl_enabled=True, ftl_over_provision=0.25, gc_low_watermark=0.30,
        gc_high_watermark=0.55, gc_mode="pause", gc_policy="stagger")
    cfg = cfg.replace(ssd=ssd, seed=seed,
                      server=ServerConfig(disks_per_server=disks))
    return cfg, wl, 2, drain


def mix_cell(seed, dynamic=True):
    """A shrunken fig12 cell: 65 KiB writes beside BTIO's tiny writes,
    under dynamic or static (1:1) partitioning."""
    mio = MpiIoTest(nprocs=16, request_size=65 * KiB,
                    file_size=file_bytes(0.0005, 16, 65 * KiB), op=Op.WRITE)
    btio = BTIO(nprocs=16, steps=2, scale=0.0001, compute_per_step=0.05)
    wl = CompositeWorkload([mio, btio], name="fig12")
    cfg = base_config().with_ibridge(ssd_partition=2 * MiB,
                                     dynamic_partition=dynamic)
    return cfg.replace(seed=seed), wl, 1, True


def read_cell(seed):
    """Unaligned 65 KiB reads after a warm pass: read-miss fills."""
    size = 65 * KiB
    wl = MpiIoTest(nprocs=16, request_size=size,
                   file_size=file_bytes(0.003, 16, size), op=Op.READ)
    cfg = base_config().with_ibridge(ssd_partition=8 * MiB)
    return cfg.replace(seed=seed), wl, 1, True


# ---------------------------------------------------------------- harness
def _first(violations):
    if not violations:
        return None
    v = violations[0]
    return (v["check"], v.get("event"), v["t"], v["message"])


def _outcome(violations, auditors, error=None):
    return {
        "error": error,
        "first": _first(violations),
        "checks": sorted({v["check"] for v in violations}),
        "count": len(violations),
        "calls": sum(a.checks for a in auditors),
        "recounts": sum(a.recounts for a in auditors),
    }


def _patch_mode(m, reference):
    # Entry ids are labels drawn from a process-wide counter; restart
    # it so both runs quote the same ids in their messages.
    m.setattr(mapping, "_entry_ids", itertools.count(1))
    if reference:
        m.setattr(ManagerAuditor, "_full_due", lambda self: True)


def run_cell(cell, reference, monkeypatch):
    """Run one cell non-strict; a bug that also crashes the simulation
    still reports what the audit saw before the crash."""
    cfg, wl, warm, drain = cell
    error = None
    with monkeypatch.context() as m:
        _patch_mode(m, reference)
        cluster = Cluster(cfg.with_audit(strict=False))
        try:
            run_workload(cluster, wl, warm_runs=warm, drain=drain)
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            cluster.shutdown()
    return _outcome(cluster.audit.violations, cluster.audit._managers, error)


def run_spec(spec, reference, monkeypatch):
    """One chaos episode; collects the auditors it builds."""
    auditors = []
    real_init = ManagerAuditor.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        auditors.append(self)

    with monkeypatch.context() as m:
        m.setattr(ManagerAuditor, "__init__", init)
        _patch_mode(m, reference)
        result = run_episode(spec)
    runtimes = {id(a.runtime): a.runtime for a in auditors}
    violations = sorted((v for r in runtimes.values() for v in r.violations),
                        key=lambda v: v["t"])
    return result, _outcome(violations, auditors)


def assert_same(ref, inc):
    assert inc["error"] == ref["error"]
    assert inc["first"] == ref["first"]
    assert inc["checks"] == ref["checks"]


def mutant(monkeypatch, owner, name, old, new):
    """Patch ``owner.name`` with its own source, ``old`` -> ``new``."""
    func = getattr(owner, name)
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, f"{old!r} not found once in {name}"
    namespace = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(func), "exec"),
         func.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


# ------------------------------------------------------------- clean runs
CELLS = {
    "gc-stagger": lambda: gc_cell(3),
    "log-cleaner-5": lambda: gc_cell(5, partition=1 * MiB),
    "log-cleaner-11": lambda: gc_cell(11, partition=1 * MiB),
    "log-cleaner-15": lambda: gc_cell(15, partition=1 * MiB),
    "two-disks": lambda: gc_cell(7, disks=2),
    "mix-dynamic": lambda: mix_cell(2),
    "mix-static": lambda: mix_cell(4, dynamic=False),
    "read-fills": lambda: read_cell(1),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_clean_cells_agree(name, monkeypatch):
    ref = run_cell(CELLS[name](), True, monkeypatch)
    inc = run_cell(CELLS[name](), False, monkeypatch)
    assert ref["error"] is None and inc["error"] is None
    assert ref["count"] == 0 and inc["count"] == 0
    assert inc["calls"] == ref["calls"]
    assert ref["recounts"] == ref["calls"]
    # The incremental run really screened: most checks were not full.
    assert inc["recounts"] * 2 < inc["calls"]


def test_log_cleaner_cell_cleans():
    cfg, wl, warm, _ = gc_cell(5, partition=1 * MiB)
    cluster = Cluster(cfg)
    run_workload(cluster, wl, warm_runs=warm)
    assert sum(s.ibridge._log.cleanings for s in cluster.servers) > 0


def _corpus():
    return sorted(f for f in os.listdir(CORPUS) if f.endswith(".json"))


@pytest.mark.parametrize("entry", _corpus())
def test_chaos_corpus_agrees(entry, monkeypatch):
    with open(os.path.join(CORPUS, entry), encoding="utf-8") as fh:
        repro = json.load(fh)
    ref_result, ref = run_spec(repro["spec"], True, monkeypatch)
    inc_result, inc = run_spec(repro["spec"], False, monkeypatch)
    assert_same(ref, inc)
    assert inc_result["verdict"] == ref_result["verdict"]
    assert inc_result["signature"] == ref_result["signature"]
    assert inc_result["signature"] == repro["signature"]


# ---------------------------------------------------------- injected bugs
BUGS = {
    # name: (owner, method, old source, new source, cell, expected check)
    "partition-drop-bytes": (
        PartitionManager, "drop",
        "self._bytes[entry.kind] -= entry.nbytes", "pass",
        lambda: gc_cell(3), "partition-bytes"),
    "mark-clean-counter": (
        MappingTable, "mark_clean",
        "self._dirty_bytes -= entry.nbytes", "pass",
        lambda: gc_cell(3), "dirty-counter"),
    "cleaner-lbn-repoint": (
        IBridgeManager, "_clean_log_if_needed",
        "entry = self._by_lbn.pop(lbn, None)",
        "entry = self._by_lbn.get(lbn)",
        lambda: gc_cell(5, partition=1 * MiB), "lbn-index"),
    "invalidate-live-bytes": (
        LogStore, "invalidate",
        "seg.live_bytes -= nbytes", "pass",
        lambda: gc_cell(3), "log-segment"),
    "superseded-ledger": (
        IBridgeManager, "_drop_entry",
        "self.audit.note_superseded(entry.nbytes)", "pass",
        lambda: gc_cell(3, drain=False), "dirty-ledger"),
    "gc-copies-ledger": (
        FlashTranslationLayer, "collect_one",
        "self.gc_pages_copied += copied", "pass",
        lambda: gc_cell(3), "ftl-ledger"),
    "release-cursor": (
        LogStore, "release_victim",
        "segment.write_cursor = 0", "pass",
        lambda: gc_cell(5, partition=1 * MiB), "log-free-list"),
    "mix-drop-returns": (
        PartitionManager, "drop",
        "self._ret_sum[entry.kind] -= entry.ret", "pass",
        lambda: mix_cell(2), "partition-returns"),
}


@pytest.mark.parametrize("name", sorted(BUGS))
def test_injected_bug_caught_identically(name, monkeypatch):
    owner, method, old, new, cell, check = BUGS[name]
    with monkeypatch.context() as m:
        mutant(m, owner, method, old, new)
        ref = run_cell(cell(), True, monkeypatch)
        inc = run_cell(cell(), False, monkeypatch)
    assert ref["first"] is not None and ref["first"][0] == check
    assert_same(ref, inc)


def test_fill_recheck_removed_caught_identically(monkeypatch):
    """chaos-88a19f9c5f68 with its fix reverted: a fill appends into the
    pre-outage log and strands an entry with no live extent."""
    with open(os.path.join(CORPUS, "chaos-88a19f9c5f68.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)["spec"]
    with monkeypatch.context() as m:
        mutant(m, IBridgeManager, "_fill_daemon",
               "(not self.ssd_available", "(False")
        _, ref = run_spec(spec, True, monkeypatch)
        _, inc = run_spec(spec, False, monkeypatch)
    assert ref["first"] is not None and ref["first"][0] == "log-extent"
    assert_same(ref, inc)

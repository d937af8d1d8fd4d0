"""Tests for the experiment infrastructure (common helpers + CLI)."""

from types import SimpleNamespace

import pytest

from repro.config import ClusterConfig
from repro.devices import HardDisk, Op
from repro.experiments import fig5
from repro.experiments.cli import main as cli_main
from repro.experiments.common import (ExperimentResult, base_config,
                                      file_bytes, read_dispatch_fractions,
                                      scaled_ibridge, set_default_fault_plan)
from repro.faults import FaultPlan
from repro.pfs.cluster import Cluster
from repro.units import GiB, KiB, MiB
from repro.workloads.base import _reset_measurement_state, run_workload
from repro.workloads.mpi_io_test import MpiIoTest


def test_file_bytes_scales_and_floors():
    # Large scale: proportional to the paper's 10 GB.
    assert file_bytes(0.01) == int(10 * GiB * 0.01)
    # Tiny scale with many procs: floored to min_iterations per rank.
    floor = 512 * 64 * KiB * 4
    assert file_bytes(1e-6, nprocs=512, request_size=64 * KiB) == floor


def test_base_config_matches_paper_testbed():
    cfg = base_config()
    assert cfg.num_servers == 8
    assert not cfg.ibridge.enabled
    assert base_config(ibridge=True).ibridge.enabled


def test_scaled_ibridge_partitions_proportionally():
    cfg = scaled_ibridge(base_config(), scale=0.01)
    assert cfg.ibridge.enabled
    assert cfg.ibridge.ssd_partition == int(10 * GiB * 0.01)
    override = scaled_ibridge(base_config(), 0.01, ssd_partition=5 * MiB)
    assert override.ibridge.ssd_partition == 5 * MiB


def test_read_dispatch_fractions_in_sectors():
    """Served read sizes become fractions keyed by 512-byte sectors
    (rounded up), merged over servers; writes are not counted."""
    a, b = HardDisk(), HardDisk()
    a.serve(Op.READ, 0, 64 * KiB)
    a.serve(Op.READ, 64 * KiB, 64 * KiB)
    a.serve(Op.READ, 0, 4 * KiB)
    a.serve(Op.WRITE, 0, 8 * KiB)
    b.serve(Op.READ, 0, 1000)
    cluster = SimpleNamespace(servers=[
        SimpleNamespace(disks=[SimpleNamespace(hdd=disk)]) for disk in (a, b)])
    fractions = read_dispatch_fractions(cluster)
    assert fractions == {2: 0.25, 8: 0.25, 128: 0.5}
    assert list(fractions) == [2, 8, 128]


def test_read_sizes_count_the_timed_pass_and_reset_when_warm():
    cluster = Cluster(ClusterConfig(num_servers=2))
    wl = MpiIoTest(nprocs=4, request_size=65 * KiB,
                   file_size=4 * 65 * KiB * 4, op=Op.READ)
    run_workload(cluster, wl, warm_runs=1)
    for server in cluster.servers:
        stats = server.hdd.stats
        assert stats.reads > 0
        assert sum(stats.read_sizes.values()) == stats.reads
        assert sum(n * c for n, c in stats.read_sizes.items()) == \
            stats.bytes_read
    _reset_measurement_state(cluster)
    assert all(not server.hdd.stats.read_sizes for server in cluster.servers)


def test_fig5_runs_under_the_default_fault_plan(monkeypatch):
    plan = FaultPlan.from_dict({"name": "slow-disk", "events": [
        {"kind": "device_slow", "server": 0, "device": "hdd", "disk": 0,
         "start": 0.001, "duration": 0.01, "latency_mult": 6.0}]})
    plans = []
    init = Cluster.__init__

    def spy(self, config=None, **kwargs):
        plans.append(kwargs.get("fault_plan"))
        init(self, config, **kwargs)

    monkeypatch.setattr(Cluster, "__init__", spy)
    set_default_fault_plan(plan)
    fig5.run(scale=0.0005, nprocs=8)
    assert plans and all(p is plan for p in plans)


def test_experiment_result_keyed_values():
    res = ExperimentResult(name="x", title="T", headers=["k", "v"])
    res.add_row(["a", 1.0], metric=42.0)
    assert res.get("a", "metric") == 42.0
    with pytest.raises(KeyError):
        res.get("a", "missing")
    text = str(res)
    assert "T" in text and "a" in text


def test_experiment_result_notes_rendered():
    res = ExperimentResult(name="x", title="T", headers=["k"])
    res.add_row(["a"])
    res.notes.append("hello note")
    assert "hello note" in str(res)


def test_cli_list(capsys):
    assert cli_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "table3" in out


def test_cli_no_args_lists(capsys):
    assert cli_main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_cli_runs_one_experiment(capsys):
    assert cli_main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "finished in" in out


def test_cli_unknown_experiment():
    with pytest.raises(KeyError):
        cli_main(["not-an-experiment"])


def test_cli_audit_flag_installs_default(capsys):
    assert cli_main(["--list", "--audit"]) == 0
    cfg = base_config()
    assert cfg.audit.enabled
    assert cfg.audit.strict
    assert cfg.audit.trace_path is None


def test_cli_audit_trace_implies_audit(tmp_path, capsys):
    path = str(tmp_path / "trace.jsonl")
    assert cli_main(["--list", "--audit-trace", path]) == 0
    cfg = base_config()
    assert cfg.audit.enabled
    assert cfg.audit.trace_path == path


def test_explicit_audit_override_wins(capsys):
    from repro.config import AuditConfig
    assert cli_main(["--list", "--audit"]) == 0
    cfg = base_config(audit=AuditConfig(enabled=False))
    assert not cfg.audit.enabled


def test_cli_repeated_traced_run_records_again_regression(tmp_path, capsys):
    # The CLI truncates the telemetry files before the run and only a
    # simulated cell writes to them, so a second identical traced run
    # must simulate every cell again (one that read its sweep cells
    # from a stored result left them empty).
    paths = {flag: tmp_path / name for flag, name in [
        ("--trace-out", "spans.jsonl"), ("--timeline-out", "timeline.jsonl"),
        ("--audit-trace", "audit.jsonl")]}
    argv = ["gc", "--scale", "0.0005"]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    counts = []
    for _ in range(2):
        assert cli_main(argv) == 0
        counts.append({flag: len(path.read_text().splitlines())
                       for flag, path in paths.items()})
    assert "no spans recorded" not in capsys.readouterr().out
    assert all(counts[0].values())
    assert counts[1] == counts[0]

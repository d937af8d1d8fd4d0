"""Tests for the experiment infrastructure (common helpers + CLI)."""

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.common import (ExperimentResult, base_config,
                                      file_bytes, scaled_ibridge)
from repro.units import GiB, KiB, MiB


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
    # that read its sweep cells from the result cache left them empty.
    paths = {flag: tmp_path / name for flag, name in [
        ("--trace-out", "spans.jsonl"), ("--timeline-out", "timeline.jsonl"),
        ("--audit-trace", "audit.jsonl")]}
    argv = ["gc", "--scale", "0.0005", "--cache-dir", str(tmp_path / "cache")]
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

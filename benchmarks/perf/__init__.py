"""Observability overhead benchmarks (tracing tiers).

Unlike the ``benchmarks/test_*`` accuracy benchmarks (which compare
simulated numbers against the paper), this package times the
simulator's telemetry: ``obs_bench`` runs one cell with each
observability tier.  Simulator speed itself is measured by
``perfbench/`` (see perfbench/README.md).

Usage::

    PYTHONPATH=src python -m benchmarks.perf.obs_bench            # full, gated
    PYTHONPATH=src python -m benchmarks.perf.obs_bench --quick    # CI smoke
"""

"""Unit tests for the blktrace-style dispatch tracer."""

from repro.block import BlockTracer
from repro.devices import Op
from repro.units import KiB, SECTOR


def fill(tracer):
    tracer.record(0.0, Op.READ, 0, 64 * KiB, merged=1)
    tracer.record(0.1, Op.READ, 64 * KiB, 64 * KiB, merged=2)
    tracer.record(0.2, Op.READ, 0, 4 * KiB, merged=1)
    tracer.record(0.3, Op.WRITE, 0, 8 * KiB, merged=1)


def test_histogram_in_sectors():
    tracer = BlockTracer()
    fill(tracer)
    hist = tracer.size_histogram(Op.READ)
    assert hist == {8: 1, 128: 2}


def test_disabled_tracer_records_nothing():
    tracer = BlockTracer(enabled=False)
    fill(tracer)
    assert len(tracer) == 0
    assert tracer.size_histogram() == {}


def test_clear():
    tracer = BlockTracer()
    fill(tracer)
    tracer.clear()
    assert len(tracer) == 0


def test_record_fields():
    tracer = BlockTracer()
    tracer.record(1.5, Op.WRITE, 512, 1000, merged=3)
    (rec,) = tracer.records
    assert rec.time == 1.5
    assert rec.sectors == -(-1000 // SECTOR)
    assert rec.merged == 3

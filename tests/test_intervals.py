"""Unit + property tests for the IntervalMap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.util.intervals import IntervalMap


def test_set_and_get_exact():
    m = IntervalMap()
    m.set(10, 20, "a")
    assert m.get(10, 20) == [(10, 20, "a", 0)]
    assert m.total_bytes == 10


def test_get_clipped_with_delta():
    m = IntervalMap()
    m.set(0, 100, 1000)  # value is a base LBN
    pieces = m.get(30, 60)
    assert pieces == [(30, 60, 1000, 30)]


def test_set_overwrites_overlap():
    m = IntervalMap()
    m.set(0, 100, "a")
    m.set(40, 60, "b")
    assert m.covered_bytes(0, 100) == 100
    assert [v for _s, _e, v, _d in m.get(0, 100)] == ["a", "b", "a"]


def test_delete_middle_splits():
    m = IntervalMap()
    m.set(0, 100, 0)
    removed = m.delete(40, 60)
    assert removed == 20
    assert m.gaps(0, 100) == [(40, 60)]
    # Integer values shift so lbn arithmetic stays consistent.
    assert m.get(60, 100) == [(60, 100, 60, 0)]


def test_delete_left_and_right_edges():
    m = IntervalMap()
    m.set(10, 30, 0)
    m.delete(0, 15)
    assert m.items() == [(15, 30, 5)]
    m.delete(25, 40)
    assert m.items() == [(15, 25, 5)]


def test_delete_disjoint_is_noop():
    m = IntervalMap()
    m.set(10, 20, "a")
    assert m.delete(30, 40) == 0
    assert len(m) == 1


def test_gaps_and_coverage():
    m = IntervalMap()
    m.set(10, 20, "a")
    m.set(30, 40, "b")
    assert m.gaps(0, 50) == [(0, 10), (20, 30), (40, 50)]
    assert m.covered_bytes(0, 50) == 20
    assert not m.is_covered(10, 40)
    assert m.is_covered(10, 20)


def test_value_at():
    m = IntervalMap()
    m.set(10, 20, "a")
    assert m.value_at(15) == "a"
    assert m.value_at(25) is None


def test_coalesce_contiguous_lbns():
    def lbn_merge(left, right):
        ls, le, lv = left
        if lv + (le - ls) == right[2]:
            return lv
        return None

    m = IntervalMap(coalesce=lbn_merge)
    m.set(0, 10, 100)
    m.set(10, 20, 110)  # device-contiguous: merges
    assert m.items() == [(0, 20, 100)]
    m.set(20, 30, 500)  # not contiguous: stays separate
    assert len(m) == 2


def test_invalid_interval_rejected():
    m = IntervalMap()
    with pytest.raises(StorageError):
        m.set(10, 10, "x")
    with pytest.raises(StorageError):
        m.set(-1, 5, "x")
    with pytest.raises(StorageError):
        m.get(5, 5)


def test_clear():
    m = IntervalMap()
    m.set(0, 10, "a")
    m.clear()
    assert len(m) == 0
    assert m.total_bytes == 0


# ---------------------------------------------------------------- properties
ops = st.lists(
    st.tuples(st.sampled_from(["set", "delete"]),
              st.integers(0, 200), st.integers(1, 50)),
    max_size=40)


@settings(max_examples=200, deadline=None)
@given(ops)
def test_property_intervals_sorted_disjoint(op_list):
    """After any op sequence, intervals stay sorted and non-overlapping."""
    m = IntervalMap()
    for kind, start, length in op_list:
        if kind == "set":
            m.set(start, start + length, start)
        else:
            m.delete(start, start + length)
        items = m.items()
        for (s1, e1, _), (s2, e2, _) in zip(items, items[1:]):
            assert s1 < e1 <= s2 < e2
        assert m.total_bytes == sum(e - s for s, e, _ in items)


@settings(max_examples=200, deadline=None)
@given(ops, st.integers(0, 250), st.integers(1, 60))
def test_property_gaps_partition_range(op_list, qstart, qlen):
    """get() pieces and gaps() exactly partition any query range."""
    m = IntervalMap()
    for kind, start, length in op_list:
        if kind == "set":
            m.set(start, start + length, 0)
        else:
            m.delete(start, start + length)
    qend = qstart + qlen
    covered = [(s, e) for s, e, _v, _d in m.get(qstart, qend)]
    gaps = m.gaps(qstart, qend)
    segments = sorted(covered + gaps)
    cursor = qstart
    for s, e in segments:
        assert s == cursor
        cursor = e
    assert cursor == qend


@settings(max_examples=150, deadline=None)
@given(ops)
def test_property_mirror_model(op_list):
    """IntervalMap agrees with a naive per-byte dictionary model."""
    m = IntervalMap()
    model = {}
    for i, (kind, start, length) in enumerate(op_list):
        if kind == "set":
            m.set(start, start + length, ("v", i))
            for b in range(start, start + length):
                model[b] = ("v", i)
        else:
            m.delete(start, start + length)
            for b in range(start, start + length):
                model.pop(b, None)
    for b in range(0, 260):
        got = m.value_at(b)
        assert got == model.get(b)


@settings(max_examples=200, deadline=None)
@given(ops, st.integers(0, 250), st.integers(1, 60), st.booleans())
def test_property_covered_bytes_sums_get_pieces(op_list, qstart, qlen,
                                                coalesce):
    """covered_bytes() equals the sum over get()'s clipped pieces, the
    formula it replaced, with or without coalescing."""
    m = IntervalMap(coalesce=(lambda left, right: left[2])
                    if coalesce else None)
    for kind, start, length in op_list:
        if kind == "set":
            m.set(start, start + length, 0)
        else:
            m.delete(start, start + length)
        qend = qstart + qlen
        assert m.covered_bytes(qstart, qend) == sum(
            ce - cs for cs, ce, _v, _d in m.get(qstart, qend))

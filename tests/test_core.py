from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from genboot.core import EventLog, Trace, prefix, subtrace, suffix
from genboot.errors import OutOfBounds

EMPTY = Trace(())

actions = st.sampled_from("abcdefg")
traces = st.lists(actions, max_size=12).map(lambda xs: Trace(tuple(xs)))


def test_trace_basics():
    t = Trace.of("a", "b", "c")
    assert len(t) == 3
    assert list(t) == ["a", "b", "c"]
    assert t[0] == "a"
    assert t[1:] == Trace.of("b", "c")
    assert t + EMPTY == t
    assert str(t) == "<a b c>"
    assert str(EMPTY) == "<>"


def test_trace_rejects_bad_actions():
    with pytest.raises(ValueError):
        Trace.of("")
    with pytest.raises(ValueError):
        Trace.of("a b")
    with pytest.raises(ValueError):
        Trace.of("i")
    with pytest.raises(ValueError):
        Trace.of("o")


def test_subtrace_examples():
    t = Trace.of(*"abbbcf")
    assert subtrace(t, 2, 2) == Trace.of("b", "b")
    assert subtrace(t, 1, 6) == t
    assert subtrace(t, 4, 0) == EMPTY


@pytest.mark.parametrize("p,n", [(0, 1), (1, 7), (7, 1), (1, -1), (6, 2)])
def test_subtrace_out_of_bounds(p, n):
    with pytest.raises(OutOfBounds):
        subtrace(Trace.of(*"abbbcf"), p, n)


def test_prefix_suffix_examples():
    t = Trace.of(*"trace")
    assert prefix(t, 3) == Trace.of(*"tra")
    assert suffix(t, 3) == Trace.of(*"ace")
    assert prefix(t, 0) == EMPTY
    assert prefix(t, 5) == t
    assert suffix(t, 1) == t
    assert suffix(t, 6) == EMPTY
    with pytest.raises(OutOfBounds):
        prefix(t, 6)
    with pytest.raises(OutOfBounds):
        suffix(t, 0)
    with pytest.raises(OutOfBounds):
        suffix(t, 7)


@given(traces, st.data())
def test_prefix_suffix_split_reassembles(t, data):
    p = data.draw(st.integers(min_value=1, max_value=len(t) + 1))
    assert prefix(t, p - 1) + suffix(t, p) == t


@given(traces, st.data())
def test_subtrace_matches_slicing(t, data):
    p = data.draw(st.integers(min_value=1, max_value=len(t) + 1))
    n = data.draw(st.integers(min_value=0, max_value=len(t) - p + 1))
    assert subtrace(t, p, n) == t[p - 1 : p - 1 + n]


def test_event_log_merges_duplicates():
    t1 = Trace.of("a")
    t2 = Trace.of("b")
    log = EventLog(((t2, 2), (t1, 1), (t2, 3)))
    assert log.size == 6
    assert log.support == (t1, t2)
    assert log.multiplicity(t2) == 5
    assert log.multiplicity(Trace.of("c")) == 0


def test_event_log_rejects_negative_counts():
    with pytest.raises(ValueError):
        EventLog(((Trace.of("a"), -1),))


def test_event_log_drops_zero_counts():
    log = EventLog(((Trace.of("a"), 0), (Trace.of("b"), 1)))
    assert log.support == (Trace.of("b"),)


def test_from_traces_counts_occurrences():
    log = EventLog.from_traces([Trace.of("a"), Trace.of("b"), Trace.of("a")])
    assert log.multiplicity(Trace.of("a")) == 2
    assert log.size == 3


def test_log_concat_adds_multiplicities():
    left = EventLog.from_counts({Trace.of("a"): 2})
    right = EventLog.from_counts({Trace.of("a"): 1, Trace.of("b"): 4})
    both = helpers.log_concat(left, right)
    assert both.multiplicity(Trace.of("a")) == 3
    assert both.multiplicity(Trace.of("b")) == 4
    assert both.size == left.size + right.size


@given(
    st.lists(st.tuples(traces, st.integers(min_value=1, max_value=5)), max_size=8),
    st.lists(st.tuples(traces, st.integers(min_value=1, max_value=5)), max_size=8),
)
def test_log_concat_sizes_add(items_a, items_b):
    a = EventLog.from_counts(items_a)
    b = EventLog.from_counts(items_b)
    assert helpers.log_concat(a, b).size == a.size + b.size

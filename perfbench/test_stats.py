"""Self-tests for the benchmark's helpers, on synthetic inputs.

Run from the repository root with ``python3 -m pytest perfbench -q``; they
need neither nonsig nor a timed run.
"""

import pytest

import stats
import workloads
from tracing import Tracer


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(range(19)) is None
    p, value = stats.tail_percentile(range(1, 21))
    assert (p, value) == (50, 10.0)


def test_tail_percentile_is_the_highest_qualifying_rank():
    samples = list(range(1, 101))
    assert stats.tail_percentile(samples) == (90, 90.0)
    # 85 samples: rank ceil(0.88 * 85) = 75 leaves 10 beyond, p89 would leave 9
    p, value = stats.tail_percentile(reversed(range(1, 86)))
    assert (p, value) == (88, 75.0)


def test_self_time_subtracts_covered_child_intervals_once():
    # children overlap each other and one sticks out past the span's end
    children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(10.0 - 3.0 - 2.0)
    assert stats.self_time(0.0, 10.0, []) == 10.0
    assert stats.self_time(0.0, 1.0, [(2.0, 3.0)]) == 1.0


def test_self_time_of_nested_spans_from_the_tracer():
    tracer = Tracer(targets=(), clock=iter([0.0, 1.0, 4.0, 5.0, 6.0, 9.0]).__next__)
    inner = tracer._wrap("inner", lambda: None, None)
    outer = tracer._wrap("outer", lambda: (inner(), inner()), None)
    outer()
    spans = tracer.take()
    assert [s.layer for s in spans] == ["outer", "inner", "inner"]
    assert spans[1].parent == spans[2].parent == spans[0].id
    children = [(s.start, s.end) for s in spans[1:]]
    assert stats.self_time(spans[0].start, spans[0].end, children) == pytest.approx(9.0 - 3.0 - 1.0)


def test_tally_counts_failures_against_attempts():
    tally = stats.Tally()
    tally.add(True, 98)
    tally.add(False, 2)
    other = stats.Tally()
    other.add(False)
    tally.merge(other)
    assert (tally.attempted, tally.failed) == (101, 3)
    assert tally.failed_frac == pytest.approx(3 / 101)
    with pytest.raises(ValueError):
        stats.Tally().failed_frac


def test_digest_separates_names_and_contents():
    a = stats.digest_bytes([("x.csv", b"1,2\n"), ("y.csv", b"")])
    assert a == stats.digest_bytes([("x.csv", b"1,2\n"), ("y.csv", b"")])
    assert a != stats.digest_bytes([("x.csv", b"1,2\n"), ("z.csv", b"")])
    assert a != stats.digest_bytes([("x.csv", b"1,"), ("y.csv", b"2\n")])


def test_compare_digest_keeps_the_first_run():
    store = {}
    assert stats.compare_digest(store, "code/fig6_scan/1", "aa") == "new"
    assert stats.compare_digest(store, "code/fig6_scan/1", "aa") == "match"
    assert stats.compare_digest(store, "code/fig6_scan/1", "bb") == "mismatch"
    assert store == {"code/fig6_scan/1": "aa"}
    assert stats.compare_digest(store, "code/fig6_scan/2", "bb") == "new"


def test_speed_scale_maps_the_reference_probe_to_one():
    ref = stats.PROBE_REF_S
    assert stats.speed_scale([ref]) == pytest.approx(1.0)
    # a run at half speed counts half its seconds
    assert stats.speed_scale([2 * ref, 2 * ref]) == pytest.approx(0.5)
    # half the probes at full speed and half at half speed average out
    assert stats.speed_scale([ref, 2 * ref, ref, 2 * ref]) == pytest.approx(1 / 1.5)


def test_inputs_per_run_depends_on_the_run_length_only():
    class Workload:
        min_ops, op_seconds = 25, 0.5

    assert workloads.inputs_per_run(Workload, 30) == 60
    # a traced run does each input twice, so it takes half as many
    assert workloads.inputs_per_run(Workload, 30, repeat=2) == 30
    assert workloads.inputs_per_run(Workload, 5) == 25

"""Tests of the benchmark's own arithmetic and answer checking.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys

import pytest

import run
from run import (GAUGE_POWER, GAUGE_REF_S, GAUGE_WINDOW, HERE, SRC, end_to_end, percentile,
                 run_job, run_pass, samples_beyond, speeds)
from tracing import NullTracer, Span, Tracer, layer_metrics, self_times

sys.path.insert(0, str(SRC))
from workloads import WORKLOADS, Job, build, pick  # noqa: E402  (needs loopkit on the path)


@pytest.mark.parametrize(
    "n, p, rank, beyond",
    [
        (100, 50, 50, 50),
        (100, 90, 90, 10),
        (101, 90, 91, 10),
        (130, 90, 117, 13),
        (208, 90, 188, 20),
        (9, 90, 9, 0),
        (1, 50, 1, 0),
    ],
)
def test_percentile_is_nearest_rank(n, p, rank, beyond):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    assert percentile(values, p) == rank
    assert samples_beyond(n, p) == beyond
    assert sum(v > percentile(values, p) for v in values) == beyond


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_job_is_pinned_and_p90_has_ten_beyond(workload):
    timed = build(workload, 0)
    assert samples_beyond(len(timed), 90) >= 10
    with open(HERE / "pins.json", encoding="utf-8") as fh:
        pinned = json.load(fh)[workload]
    assert sorted(j.id for j in build(workload, 0, full=True)) == sorted(pinned)
    assert {j.id for j in timed} < set(pinned)


def test_pick_keeps_every_kth_item_unless_full():
    assert pick(range(10), 4, full=False) == [0, 4, 8]
    assert pick(range(10), 4, full=False, offset=6) == [2, 6]
    assert pick(range(10), 4, full=True) == list(range(10))


def test_speeds_use_the_readings_nearest_each_job():
    # 20 jobs with a reading before the first and after each; reading k is
    # taken after k jobs and is (k + 1) times the reference
    one_pass = {"latency": {f"j{i}": 0.1 for i in range(20)},
                "gauge": [[k, GAUGE_REF_S * (k + 1)] for k in range(21)]}
    assert GAUGE_WINDOW == 8
    v = speeds(one_pass)
    # readings 7 to 14: four before job 10 and four after it
    assert v[10] == pytest.approx((1 / 11.5) ** GAUGE_POWER)
    assert v[0] == pytest.approx((1 / 4.5) ** GAUGE_POWER)  # readings 0 to 7
    assert v[19] == pytest.approx((1 / 17.5) ** GAUGE_POWER)  # readings 13 to 20


def test_end_to_end_takes_median_of_scaled_times(monkeypatch):
    monkeypatch.setattr(run, "GAUGE_POWER", 1.0)
    gauge = [[0, GAUGE_REF_S]]  # the reference speed
    slow = [[0, 2 * GAUGE_REF_S]]  # half the reference speed
    passes = [
        {"latency": {"a": 2.0, "b": 1.0}, "cpu": {"a": 1.5, "b": 1.0}, "gauge": gauge},
        {"latency": {"a": 1.0, "b": 3.0}, "cpu": {"a": 1.0, "b": 2.0}, "gauge": gauge},
        {"latency": {"a": 4.0, "b": 2.0}, "cpu": {"a": 3.0, "b": 1.5}, "gauge": slow},
    ]
    m = end_to_end(passes, [0.3, 0.1, 0.2])
    # a: 2.0, 1.0, 2.0 -> 2.0; b: 1.0, 3.0, 1.0 -> 1.0
    assert m["wall_s"] == pytest.approx(3.0)
    assert m["cpu_s"] == pytest.approx(1.5 + 1.0)
    assert m["job_p50_s"] == pytest.approx(1.0) and m["job_p90_s"] == pytest.approx(2.0)
    assert m["setup_s"] == pytest.approx(0.1)  # median of 0.3, 0.1, 0.1


def _span(name, start, end, parent=None, **info):
    return Span(name, start, end, parent=parent, info=info)


def test_self_time_subtracts_children():
    spans = [
        _span("job", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 4.0, 8.0, parent=0),
        _span("c", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("job", 0.0, 10.0),
        _span("a", 1.0, 5.0, parent=0),
        _span("b", 4.0, 6.0, parent=0),
        _span("c", 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_from_spans():
    spans = [
        _span("job", 0.0, 10.0),
        _span("search.search", 1.0, 3.0, parent=0, nodes=400, found=4),
        _span("identities.check_identity", 3.0, 4.0, parent=0, instances=216),
        _span("identities.check_identity", 4.0, 4.5, parent=0),
        _span("perms.mlt", 5.0, 9.0, parent=0, elements=12),
    ]
    m = layer_metrics(spans)
    assert m["search.calls"] == 1
    assert m["search.busy_s"] == pytest.approx(2.0)
    assert m["search.nodes"] == 400
    assert m["search.nodes_per_s"] == pytest.approx(200.0)
    assert m["search.found_per_node"] == pytest.approx(0.01)
    # the rate counts only the call that returned True
    assert m["identities.calls"] == 2
    assert m["identities.instances_per_s"] == pytest.approx(216.0)
    assert m["perms.elements_per_s"] == pytest.approx(3.0)
    assert m["bench.glue_s"] == pytest.approx(10.0 - 2.0 - 1.5 - 4.0)
    assert m["bk.audit.busy_s"] == 0


def test_tracer_nests_spans_under_the_job():
    t = Tracer()
    job = t.begin("job", "j1")
    assert t.call("perms.mlt", lambda x: [x] * 3, 7, info=lambda r: {"elements": len(r)}) == [7] * 3
    t.end(job)
    assert [(s.name, s.parent, s.job) for s in t.spans] == [("job", None, "j1"), ("perms.mlt", 0, "j1")]
    assert t.spans[1].info == {"elements": 3}
    assert t.spans[0].start <= t.spans[1].start <= t.spans[1].end <= t.spans[0].end


def test_wrong_pin_is_a_failure():
    jobs = [Job("right", lambda t: [1, 2]), Job("wrong", lambda t: 3), Job("unpinned", lambda t: 0)]
    result = run_pass(jobs, {"right": [1, 2], "wrong": 4}, NullTracer())
    assert [f["job"] for f in result["failures"]] == ["wrong", "unpinned"]
    assert set(result["latency"]) == {"right", "wrong", "unpinned"}


def test_raising_job_is_a_failure_and_the_run_goes_on():
    def boom(t):
        raise RuntimeError("broken layer")

    into = {"wall_s": 0.0, "latency": {}, "cpu": {}, "failures": []}
    run_job(Job("boom", boom), {"boom": 1}, NullTracer(), into)
    run_job(Job("fine", lambda t: 1), {"fine": 1}, NullTracer(), into)
    assert [f["job"] for f in into["failures"]] == ["boom"]
    assert "broken layer" in into["failures"][0]["error"]

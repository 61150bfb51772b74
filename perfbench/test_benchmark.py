"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import pytest

import metrics
import spans
import worker


def test_tail_needs_ten_samples_beyond():
    assert metrics.tail(list(range(19))) is None
    # 20 samples: the median (rank 10) has 10 beyond it, p75 only 5
    assert metrics.tail(list(range(1, 21))) == (50, 10)
    # 100 samples: p90 (rank 90) has 10 beyond it, p95 only 5
    assert metrics.tail(list(range(1, 101))) == (90, 90)
    assert metrics.tail(list(range(1, 1001)))[0] == 99


def test_tail_ignores_sample_order():
    xs = [5, 1, 9, 3, 7] * 6
    assert metrics.tail(xs) == metrics.tail(sorted(xs))


def test_rung_without_success_reports_null_and_failures():
    s = metrics.rung_summary([(0.04, False), (0.05, False)])
    assert s["median_s"] is None and s["mean_s"] is None and s["tail"] is None
    assert s["samples"] == 0 and s["failures"] == 2


def test_rung_timing_uses_successes_only():
    s = metrics.rung_summary([(1.0, True), (5.0, True), (0.01, False)])
    assert s["median_s"] == s["mean_s"] == 3.0
    assert (s["samples"], s["failures"]) == (2, 1)


def test_pass_time_sums_per_operation_medians_and_means():
    a = [(1.0, True), (1.2, True), (9.0, True)]       # one slow spell
    b = [(0.1, True), (0.3, True), (0.2, False)]
    s = metrics.pass_summary([a, b])
    assert s["median_s"] == pytest.approx(1.2 + 0.2)
    assert s["mean_s"] == pytest.approx(11.2 / 3 + 0.2)
    assert (s["samples"], s["failures"]) == (2, 1)
    none = metrics.pass_summary([a, [(0.1, False)]])
    assert none["median_s"] is None and none["mean_s"] is None


def test_pass_plan_depends_on_seconds_only():
    assert worker.planned_passes(20, 0.85) == 24
    assert worker.planned_passes(20, 3.0) == 7
    assert worker.planned_passes(20, 8.2) == worker.MIN_PASSES


def test_spread_is_interquartile_range_over_median():
    assert metrics.spread([10.0] * 10) == 0
    assert metrics.spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx((6 - 2) / 4)


class Clock:
    """A fake perf_counter_ns that advances 10 ns per reading."""

    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 10
        return self.t


@pytest.fixture
def clock(monkeypatch):
    c = Clock()
    monkeypatch.setattr(spans.time, "perf_counter_ns", c)
    return c


def test_self_time_subtracts_nested_children(clock):
    tr = spans.Tracer()

    def leaf():
        clock.t += 100

    def inner():
        clock.t += 50
        leaf_w()
        leaf_w()

    def outer():
        inner_w()
        clock.t += 1000

    leaf_w = tr.wrap("numerics", leaf)
    inner_w = tr.wrap("controllability", inner)
    outer_w = tr.wrap("cli", outer)
    outer_w()
    agg = tr.aggregate()
    leaf_row, inner_row, outer_row = (agg["numerics.leaf"],
                                      agg["controllability.inner"],
                                      agg["cli.outer"])
    assert leaf_row["calls"] == 2 and leaf_row["self_ns"] == 2 * 110
    assert inner_row["self_ns"] == inner_row["incl_ns"] - leaf_row["incl_ns"]
    assert outer_row["self_ns"] == outer_row["incl_ns"] - inner_row["incl_ns"]
    # self times add up to the root span
    assert sum(r["self_ns"] for r in agg.values()) == tr.root_ns() == outer_row["incl_ns"]


def test_failure_is_attributed_to_the_span_that_raised(clock):
    tr = spans.Tracer()

    def bad():
        raise ValueError("boom")

    bad_w = tr.wrap("numerics", bad)

    def mid():
        bad_w()

    mid_w = tr.wrap("controllability", mid)
    top_w = tr.wrap("simulation", lambda: mid_w())
    with pytest.raises(ValueError):
        top_w()
    agg = tr.aggregate()
    assert agg["numerics.bad"]["failed"] == 1
    assert agg["controllability.mid"]["failed"] == 0
    assert agg["simulation.<lambda>"]["failed"] == 0
    # every span closed despite the exception
    assert all(e > s for s, e in zip(tr.start, tr.end))


def test_reraised_failure_is_counted_once(clock):
    tr = spans.Tracer()

    def bad():
        raise ValueError("boom")

    bad_w = tr.wrap("numerics", bad)

    def translate():
        try:
            bad_w()
        except ValueError as exc:
            raise RuntimeError("translated") from exc

    with pytest.raises(RuntimeError):
        tr.wrap("simulation", translate)()
    agg = tr.aggregate()
    assert agg["numerics.bad"]["failed"] == 1
    assert agg["simulation.translate"]["failed"] == 0


def test_active_binds_wrappers_only_inside_the_block(clock):
    import types

    mod = types.ModuleType("fake_layer")
    exec("def work(x):\n    return helper(x) + 1\n"
         "def helper(x):\n    return 2 * x\n", vars(mod))
    tr = spans.Tracer()
    tr.instrument({"fake": mod}, [vars(mod)])
    original = mod.work
    with tr.active():
        assert mod.work(3) == 7
    assert mod.work is original
    assert mod.work(3) == 7                     # untraced call
    agg = tr.aggregate()
    assert agg["fake.work"]["calls"] == 1
    assert agg["fake.helper"]["calls"] == 1     # module-internal call traced

"""Percentiles, metric names and ledger arithmetic on synthetic data."""

import threading

import pytest

from perfbench.ledger import (
    MIN_BEYOND,
    Span,
    Tracer,
    check_metric_name,
    coverage,
    overhead_share,
    percentile,
    quartile_spread,
    self_times,
    totals_by_name,
)


class TestPercentile:
    def test_nearest_rank_picks_the_ceil_rank_order_statistic(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50).value == 50
        assert percentile(samples, 90).value == 90
        assert percentile(samples, 100).value == 100
        assert percentile([3.0, 1.0, 2.0], 50).value == 2.0
        assert percentile([5.0], 1).value == 5.0

    def test_ten_samples_beyond_is_supported_nine_is_not(self):
        at_limit = percentile(list(range(100)), 90)
        assert at_limit.beyond == MIN_BEYOND == 10
        assert at_limit.supported
        short = percentile(list(range(99)), 90)
        assert short.beyond == 9
        assert not short.supported
        assert "unsupported" in short.describe("ms")
        assert "n=99" in short.describe("ms")

    def test_p75_needs_forty_samples(self):
        assert percentile(list(range(40)), 75).supported
        assert not percentile(list(range(39)), 75).supported

    @pytest.mark.parametrize("q", [0, -5, 101])
    def test_out_of_range_quantile_is_refused(self, q):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], q)

    def test_empty_sample_is_refused(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestMetricNames:
    @pytest.mark.parametrize(
        "name", ["setup_s", "crossbar.solve_us_per_row", "a-b.c_d", "9lives", "x" * 64]
    )
    def test_valid(self, name):
        assert check_metric_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "has space", "slash/name", "_leading", ".leading", "x" * 65, "ü", None]
    )
    def test_invalid(self, name):
        with pytest.raises(ValueError):
            check_metric_name(name)


def _span(span_id, name, start, end, parent=None, op=None):
    return Span(span_id, name, start, end, parent, op)


class TestLedgerArithmetic:
    def test_self_time_subtracts_children_and_counts_overlap_once(self):
        spans = [
            _span(0, "op", 0, 100),
            _span(1, "a", 10, 40, parent=0),
            _span(2, "b", 30, 60, parent=0),  # overlaps a by 10
            _span(3, "c", 90, 120, parent=0),  # runs past the parent's end
            _span(4, "leaf", 12, 20, parent=1),
        ]
        own = self_times(spans)
        assert own[0] == 100 - (60 - 10) - (100 - 90)
        assert own[1] == 30 - 8
        assert own[2] == 30
        assert own[3] == 30
        assert own[4] == 8

    def test_totals_by_name_sum_self_or_whole_durations(self):
        spans = [
            _span(0, "op", 0, 10),
            _span(1, "stage", 2, 5, parent=0),
            _span(2, "op", 20, 30),
            _span(3, "stage", 21, 29, parent=2),
        ]
        assert totals_by_name(spans) == {"op": 7 + 2, "stage": 3 + 8}
        assert totals_by_name(spans, self_time=False) == {"op": 20, "stage": 11}

    def test_self_times_of_the_stages_add_up_to_the_op(self):
        spans = [
            _span(0, "op", 0, 100),
            _span(1, "a", 0, 25, parent=0),
            _span(2, "b", 25, 95, parent=0),
        ]
        totals = totals_by_name(spans)
        assert sum(totals.values()) == 100

    def test_residual_coverage_and_overhead(self):
        # recall 400 us/row of which dac 5, solve 350, wta 40: residual 5.
        assert 400 - 5 - 350 - 40 == 5
        assert coverage([400.0, 10.0, 2.0], 412.0) == pytest.approx(1.0)
        assert coverage([90.0], 100.0) == pytest.approx(0.9)
        assert overhead_share(105.0, 100.0) == pytest.approx(0.05)
        with pytest.raises(ValueError):
            coverage([1.0], 0.0)
        with pytest.raises(ValueError):
            overhead_share(1.0, 0.0)

    def test_quartile_spread_is_iqr_over_median(self):
        assert quartile_spread([10.0] * 5) == 0.0
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        assert quartile_spread(values) == pytest.approx((11.5 - 8.5) / 10.0)


class TestTracer:
    def test_nesting_sets_parents_and_ops(self):
        tracer = Tracer()
        with tracer.span("op", 7) as outer:
            with tracer.span("stage", 7) as inner:
                pass
        spans = {span.span_id: span for span in tracer.spans}
        assert spans[inner].parent == outer
        assert spans[outer].parent is None
        assert spans[inner].op == spans[outer].op == 7
        assert spans[outer].start_ns <= spans[inner].start_ns <= spans[inner].end_ns <= spans[outer].end_ns

    def test_threads_keep_their_own_parents(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(name):
            with tracer.span(name):
                barrier.wait(5)
                with tracer.span(name + ".child"):
                    barrier.wait(5)

        threads = [threading.Thread(target=work, args=(name,)) for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        by_id = {span.span_id: span for span in tracer.spans}
        for span in tracer.spans:
            if span.name.endswith(".child"):
                assert by_id[span.parent].name == span.name[: -len(".child")]

import pytest

from road_bench.stats import percentile, spans_per_window, spread, windowed_percentile


def test_nearest_rank_percentile_is_an_observed_value():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 0.05) == 15
    assert percentile(values, 0.30) == 20
    assert percentile(values, 0.40) == 20
    assert percentile(values, 0.50) == 35
    assert percentile(values, 1.00) == 50
    assert percentile(list(range(1, 101)), 0.95) == 95
    assert percentile([7.5], 0.99) == 7.5


def test_percentile_ignores_input_order_and_rejects_empty():
    assert percentile([50, 15, 40, 20, 35], 0.5) == 35
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_windowed_percentile_is_the_median_of_window_tails():
    samples = []
    # Ten 1-second windows of 100 samples at 1 ms; window 3 stalls.
    for window in range(10):
        for k in range(100):
            value = 500.0 if window == 3 and k >= 50 else 1.0
            samples.append((100.0 + window + k / 100.0, value))
    tail, windows = windowed_percentile(samples, 0.95, start=100.0)
    assert windows == 10
    assert tail == 1.0  # the stalled window does not move the median
    assert percentile([v for _, v in samples], 0.99) == 500.0  # it moves this


def test_windowed_percentile_assigns_samples_by_time():
    samples = [(0.1, 1.0), (0.9, 3.0), (1.1, 10.0), (2.5, 20.0)]
    tail, windows = windowed_percentile(samples, 1.0, start=0.0)
    assert windows == 3
    assert tail == 10.0  # median of window maxima 3, 10, 20


def test_spread_uses_exclusive_quartiles():
    s = spread([10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0])
    assert s["median"] == 14.5
    assert s["q1"] == pytest.approx(11.75)
    assert s["q3"] == pytest.approx(17.25)
    assert s["spread"] == pytest.approx(5.5 / 14.5)
    assert spread([3.0])["spread"] == 0.0


def test_spans_per_window_shares_a_span_out_by_overlap():
    edges = [0.0, 1.0, 2.0, 3.0]
    spans = [
        (0.2, 0.4, 10.0),  # inside window 0
        (0.5, 2.5, 64.0),  # a quarter, a half, a quarter
        (2.9, 3.3, 8.0),  # a quarter inside window 2, the rest past the end
        (1.5, 1.5, 99.0),  # no duration: ignored
    ]
    assert spans_per_window(spans, edges) == pytest.approx([26.0, 32.0, 18.0])

"""Unit tests for the per-function arrival forecasters."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.autoscaler.forecast import (
    FORECASTER_KINDS,
    CompositeForecaster,
    HoltEWMA,
    HybridHistogram,
    OracleForecaster,
    SeasonalBins,
    make_forecaster,
)
from repro.faas.traces import FunctionTrace


def feed(forecaster, counts, start=0):
    for i, count in enumerate(counts):
        forecaster.observe(start + i, count)


# -- Holt EWMA ---------------------------------------------------------------------
def test_ewma_tracks_level():
    fc = HoltEWMA(bin_s=1.0)
    feed(fc, [10] * 20)
    assert fc.predict_rps(20.0) == pytest.approx(10.0, rel=0.05)


def test_ewma_extrapolates_rising_trend():
    fc = HoltEWMA(bin_s=1.0)
    feed(fc, list(range(0, 40, 2)))  # steadily rising
    # The prediction must be ahead of the last observed rate.
    assert fc.predict_rps(20.0) > 38


def test_ewma_does_not_undershoot_on_fall():
    fc = HoltEWMA(bin_s=1.0)
    feed(fc, [30] * 10 + [0] * 3)
    # Negative trend is clamped: prediction decays but never goes negative.
    assert 0.0 <= fc.predict_rps(13.0) < 30.0


def test_ewma_no_opinion_before_data():
    assert HoltEWMA().predict_rps(0.0) is None


# -- seasonal bins -----------------------------------------------------------------
def test_seasonal_predicts_from_previous_period():
    fc = SeasonalBins(period_s=4.0, bin_s=1.0)
    feed(fc, [0, 10, 0, 0])  # one full period: phase 1 is active
    # Just before the next phase-1 bin (bin 5), the prediction speaks.
    assert fc.predict_rps(4.5) == pytest.approx(10.0)
    assert fc.predict_rps(5.5) == pytest.approx(0.0)


def test_seasonal_next_active_time_scans_phases():
    fc = SeasonalBins(period_s=4.0, bin_s=1.0)
    feed(fc, [0, 10, 0, 0])
    # At bin 4 (phase 0, inactive) the next active phase-1 bin is t=5.
    assert fc.next_active_time(4.2) == pytest.approx(5.0)


def test_seasonal_rejects_degenerate_period():
    with pytest.raises(ValueError):
        SeasonalBins(period_s=0.5, bin_s=1.0)


# -- hybrid histogram --------------------------------------------------------------
def clumpy(fc):
    """Three activity clumps separated by 30 idle bins."""
    pattern = []
    for _ in range(3):
        pattern += [5, 5, 5] + [0] * 30
    feed(fc, pattern)


def test_histogram_keepalive_covers_interclump_gap():
    fc = HybridHistogram(bin_s=1.0, min_samples=3)
    clumpy(fc)
    last_active = fc.last_active_time
    # Just after the last clump we are within the keep-alive tail.
    assert fc.idle_deadline(last_active + 2.0) > last_active + 2.0


def test_histogram_conditional_prediction_switches_modes():
    fc = HybridHistogram(bin_s=1.0, min_samples=3)
    clumpy(fc)
    last = fc.last_active_time
    # While barely idle, the short intra-clump gaps dominate: imminent.
    assert fc.next_active_time(last + 0.5) <= last + 2.0
    # Idle past the intra-clump mode: only the ~31s inter-clump gaps remain.
    predicted = fc.next_active_time(last + 5.0)
    assert predicted == pytest.approx(last + 31.0, abs=2.0)


def test_histogram_expires_past_all_recorded_gaps():
    fc = HybridHistogram(bin_s=1.0, min_samples=3)
    clumpy(fc)
    last = fc.last_active_time
    probe = last + 40.0  # beyond every recorded gap
    assert fc.next_active_time(probe) is None
    assert fc.idle_deadline(probe) == probe


def test_histogram_abstains_without_samples():
    fc = HybridHistogram(bin_s=1.0, min_samples=3)
    feed(fc, [3, 0, 0])
    assert fc.next_active_time(3.0) is None
    assert fc.idle_deadline(3.0) is None


@given(
    steps=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)), max_size=60),
    bin_s=st.sampled_from([0.25, 1.0, 2.5]),
    elapsed=st.lists(st.floats(min_value=-1.0, max_value=150.0), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_histogram_conditional_gaps_match_a_full_sort(steps, bin_s, elapsed):
    fc = HybridHistogram(bin_s=bin_s)
    bin_index, active, gaps = 0, None, []
    for skip, count in steps:
        bin_index += skip
        fc.observe(bin_index, count)
        if count > 0:
            if active is not None and bin_index > active:
                gaps.append((bin_index - active) * bin_s)
            active = bin_index
    assert fc.gaps == sorted(gaps)
    for value in [*elapsed, *gaps]:  # recorded gaps probe the bisect boundary
        assert fc._conditional_gaps(value) == sorted(g for g in gaps if g > value)


# -- oracle ------------------------------------------------------------------------
def oracle_trace():
    return FunctionTrace(
        function="f", model="resnet50", counts=(0, 0, 50, 0, 0, 20), bin_s=10.0
    )


def test_oracle_sees_upcoming_bin():
    fc = OracleForecaster(oracle_trace(), lead_s=5.0)
    fc.origin = 100.0
    # At t=118 (trace offset 18) the active bin [20, 30) is within the lead.
    assert fc.predict_rps(118.0) == pytest.approx(5.0)
    assert fc.next_active_time(110.0) == pytest.approx(120.0)


def test_oracle_idle_deadline_is_now_during_long_silence():
    fc = OracleForecaster(oracle_trace(), lead_s=5.0)
    fc.origin = 0.0
    assert fc.idle_deadline(0.0) == 0.0  # next activity 20s away > lead
    assert fc.idle_deadline(19.0) is None  # activity imminent: stay up


# -- composite / factory ------------------------------------------------------------
def test_composite_combines_parts():
    ewma = HoltEWMA(bin_s=1.0)
    hist = HybridHistogram(bin_s=1.0, min_samples=3)
    fc = CompositeForecaster([ewma, hist], bin_s=1.0)
    clumpy(fc)
    assert fc.predict_rps(10.0) is not None
    assert fc.active_rate() == pytest.approx(5.0, rel=0.1)


def test_ingest_feeds_only_complete_bins():
    fc = HoltEWMA(bin_s=1.0)
    fc.ingest({0: 10, 1: 10, 2: 999}, upto_bin=2)  # bin 2 still open
    assert fc.predict_rps(2.0) == pytest.approx(10.0)
    fc.ingest({0: 10, 1: 10, 2: 10}, upto_bin=3)  # now complete
    assert fc.predict_rps(3.0) == pytest.approx(10.0, rel=0.05)


@pytest.mark.parametrize("kind", FORECASTER_KINDS)
def test_factory_builds_each_kind(kind):
    fc = make_forecaster(kind, bin_s=1.0, period_s=60.0)
    feed(fc, [1, 2, 3])
    assert fc.bin_s == 1.0


def test_factory_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_forecaster("lstm")


def test_factory_seasonal_requires_period():
    with pytest.raises(ValueError):
        make_forecaster("seasonal")

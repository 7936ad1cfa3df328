"""Unit and property tests for units, rng and stats helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Rng, Summary, TimeSeries, percentile
from repro.sim.stats import RateMeter
from repro.sim.units import (
    GB,
    Gbps,
    KB,
    MB,
    PAGE_SIZE,
    page_align_down,
    page_align_up,
    page_number,
    pages_for,
    transfer_time,
    us,
)


# --------------------------------------------------------------------- units
def test_size_constants():
    assert KB == 1024
    assert MB == 1024 * KB
    assert GB == 1024 * MB
    assert PAGE_SIZE == 4096


def test_transfer_time_basic():
    # 1 Gb over a 1 Gbps link takes 1 second.
    assert transfer_time(Gbps // 8, Gbps) == pytest.approx(1.0)
    # 1500B over 12 Gbps takes 1 microsecond.
    assert transfer_time(1500, 12 * Gbps) == pytest.approx(1.0 * us, rel=1e-6)


def test_transfer_time_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        transfer_time(100, 0)


def test_pages_for():
    assert pages_for(0) == 0
    assert pages_for(1) == 1
    assert pages_for(PAGE_SIZE) == 1
    assert pages_for(PAGE_SIZE + 1) == 2
    assert pages_for(4 * MB) == 1024  # the paper's 4MB message spans 1024 pages


def test_pages_for_rejects_negative():
    with pytest.raises(ValueError):
        pages_for(-1)


@given(st.integers(min_value=0, max_value=2**48))
def test_page_alignment_properties(addr):
    down = page_align_down(addr)
    up = page_align_up(addr)
    assert down % PAGE_SIZE == 0
    assert up % PAGE_SIZE == 0
    assert down <= addr <= up
    assert up - down in (0, PAGE_SIZE)
    assert page_number(addr) == down // PAGE_SIZE


# ----------------------------------------------------------------------- rng
def test_rng_reproducible():
    a = Rng(seed=7)
    b = Rng(seed=7)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_rng_fork_independent_and_stable():
    root = Rng(seed=1)
    child1 = root.fork("nic")
    child2 = root.fork("nic")
    other = root.fork("mem")
    assert child1.seed == child2.seed
    assert child1.seed != other.seed
    # Draws from the parent do not perturb the child stream.
    root2 = Rng(seed=1)
    root2.random()
    assert root2.fork("nic").seed == child1.seed


def test_bernoulli_bounds():
    rng = Rng(seed=3)
    with pytest.raises(ValueError):
        rng.bernoulli(1.5)
    assert rng.bernoulli(0.0) is False
    assert rng.bernoulli(1.0) is True


def test_zipf_index_range_and_skew():
    rng = Rng(seed=5)
    n = 1000
    samples = [rng.zipf_index(n) for _ in range(5000)]
    assert all(0 <= s < n for s in samples)
    # Zipf: the most popular decile gets the majority of accesses.
    head = sum(1 for s in samples if s < n // 10)
    assert head > len(samples) * 0.5


def test_zipf_index_rejects_empty():
    with pytest.raises(ValueError):
        Rng(seed=0).zipf_index(0)


def test_lognormal_jitter_positive_and_centered():
    rng = Rng(seed=9)
    samples = [rng.lognormal_jitter(100.0, sigma=0.1) for _ in range(2000)]
    assert all(s > 0 for s in samples)
    mean = sum(samples) / len(samples)
    assert 90.0 < mean < 115.0


# --------------------------------------------------------------------- stats
def test_percentile_interpolation():
    data = [1.0, 2.0, 3.0, 4.0]
    assert percentile(data, 0) == 1.0
    assert percentile(data, 100) == 4.0
    assert percentile(data, 50) == pytest.approx(2.5)


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_percentile_within_bounds(data):
    for pct in (0, 25, 50, 75, 95, 99, 100):
        value = percentile(data, pct)
        assert min(data) <= value <= max(data)


@given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=100))
def test_summary_ordering(data):
    s = Summary.of(data)
    assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.maximum
    assert s.count == len(data)


def test_time_series_requires_monotonic_time():
    ts = TimeSeries("x")
    ts.record(1.0, 10.0)
    with pytest.raises(ValueError):
        ts.record(0.5, 20.0)


def test_time_series_window_mean():
    ts = TimeSeries()
    for t in range(10):
        ts.record(float(t), float(t * 10))
    assert ts.mean_between(0.0, 5.0) == pytest.approx(20.0)
    assert ts.mean_between(100.0, 200.0) == 0.0
    assert len(ts) == 10
    assert ts.points()[0] == (0.0, 0.0)


def test_rate_meter_converts_counts_to_rates():
    meter = RateMeter(interval=2.0)
    meter.mark()
    meter.mark(3.0)
    rate = meter.flush(now=2.0)
    assert rate == pytest.approx(2.0)  # 4 units over 2 seconds
    assert meter.flush(now=4.0) == 0.0


def test_rate_meter_validation():
    with pytest.raises(ValueError):
        RateMeter(interval=0)

"""Windowed percentiles: determinism, rotation, one store per series.

The SLO plane rests on :class:`~repro.obs.metrics.WindowedHistogram`
being exactly reproducible — nearest-rank percentiles over cycle-aligned
frames, integer in, integer out — and on the registry exporting the SLO
monitor's own histograms rather than a second copy of every sample.
"""

import pytest

from repro.fleet.scheduler import SloConfig, SloMonitor
from repro.hw.cycles import CycleClock
from repro.obs.metrics import (
    DEFAULT_WINDOW_CYCLES,
    DEFAULT_WINDOWS,
    EwmaDetector,
    MetricsRegistry,
    WindowedHistogram,
)


# --------------------------------------------------------------------------- #
# deterministic nearest-rank percentiles
# --------------------------------------------------------------------------- #

def test_percentiles_are_deterministic_nearest_rank():
    hist = WindowedHistogram(window_cycles=1000, windows=4)
    for i, v in enumerate(range(1, 101)):    # 1..100, one per cycle
        hist.observe(v, i)
    assert hist.quantile(0.50) == 50
    assert hist.quantile(0.95) == 95
    assert hist.quantile(0.99) == 99
    assert hist.quantile(1.00) == 100
    assert hist.quantiles() == {"count": 100, "p50": 50, "p95": 95,
                                "p99": 99}
    # integers in, integers out — no interpolation drift between runs
    assert all(isinstance(hist.quantile(q), int)
               for q in (0.5, 0.95, 0.99))


def test_single_value_and_empty_edge_cases():
    hist = WindowedHistogram(window_cycles=10, windows=2)
    assert hist.quantile(0.99) is None
    assert hist.quantiles() == {"count": 0, "p50": None, "p95": None,
                                "p99": None}
    hist.observe(42, 0)
    assert hist.quantile(0.5) == hist.quantile(0.99) == 42


def test_identical_streams_produce_identical_summaries():
    def run():
        hist = WindowedHistogram(window_cycles=500, windows=3)
        for i in range(200):
            hist.observe((i * 7919) % 1000, i * 13)
        return hist.quantiles()

    assert run() == run()


# --------------------------------------------------------------------------- #
# rotation at exact cycle boundaries
# --------------------------------------------------------------------------- #

def test_frames_rotate_at_exact_cycle_boundaries():
    hist = WindowedHistogram(window_cycles=1000, windows=2)
    hist.observe(1, 0)
    hist.observe(2, 999)        # same frame: [0, 1000)
    assert hist.values() == [1, 2]
    hist.observe(3, 1000)       # first cycle of frame 1 — a new frame,
    assert hist.values() == [1, 2, 3]     # but frame 0 is still retained
    hist.observe(4, 2000)       # frame 2: frame 0 slides out exactly now
    assert hist.values() == [3, 4]
    assert hist.count == 2


def test_values_view_filters_by_the_asking_cycle():
    hist = WindowedHistogram(window_cycles=100, windows=2)
    hist.observe(10, 50)                  # frame 0
    hist.observe(20, 150)                 # frame 1
    assert hist.values(cycle=199) == [10, 20]
    # asked "as of" frame 2, frame 0 is out of window even though the
    # store hasn't rotated yet (no observation landed in frame 2)
    assert hist.values(cycle=200) == [20]
    assert hist.quantile(0.5, cycle=200) == 20


def test_rejects_nonpositive_geometry():
    with pytest.raises(ValueError):
        WindowedHistogram(window_cycles=0)
    with pytest.raises(ValueError):
        WindowedHistogram(windows=0)


# --------------------------------------------------------------------------- #
# registry integration
# --------------------------------------------------------------------------- #

def test_registry_windowed_series_are_the_slo_monitors_histograms():
    clock = CycleClock()
    clock.metrics = registry = MetricsRegistry()
    monitor = SloMonitor(clock, SloConfig())
    for v in (10, 20, 30, 40):
        clock.charge(10, "work")
        monitor.observe("a", "service", v)
    monitor.observe("b", "e2e", 99)
    series = registry.windowed["erebor_fleet_latency_cycles"]
    assert list(series) == ["metric=service,tenant=a", "metric=e2e,tenant=b"]
    for (tenant, metric), hist in monitor.hists.items():
        assert series[f"metric={metric},tenant={tenant}"] is hist
    snap = registry.snapshot()["windowed"]["erebor_fleet_latency_cycles"]
    for (tenant, metric), hist in monitor.hists.items():
        # each series is self-describing: its window geometry rides along
        assert snap[f"metric={metric},tenant={tenant}"] == {
            **hist.quantiles(), "window_cycles": DEFAULT_WINDOW_CYCLES,
            "windows": DEFAULT_WINDOWS}
    assert snap["metric=service,tenant=a"]["count"] == 4
    assert snap["metric=service,tenant=a"]["p50"] == 20
    assert snap["metric=e2e,tenant=b"]["p99"] == 99


def test_plain_snapshot_shape_untouched_by_windowed_series():
    registry = MetricsRegistry()
    snap = registry.snapshot()
    assert snap["windowed"] == {}
    assert set(snap) == {"counters", "gauges", "histograms", "windowed",
                         "exemplars"}


# --------------------------------------------------------------------------- #
# the EWMA detector underneath the anomaly plane
# --------------------------------------------------------------------------- #

def test_ewma_flags_spikes_only_after_baseline():
    det = EwmaDetector(alpha=0.3, threshold=3.0, min_samples=4)
    assert not any(det.update(100) for _ in range(4))   # learning
    assert not det.update(101)                          # jitter tolerated
    assert det.update(1000)                             # 10x spike flags
    # the anomalous sample was not absorbed into the baseline
    assert det.mean < 110
    assert det.update(1000)                             # still anomalous


def test_ewma_is_deterministic():
    def run():
        det = EwmaDetector()
        flags = [det.update(v) for v in
                 [50, 52, 48, 51, 50, 49, 500, 51, 50]]
        return flags, det.mean, det.var

    assert run() == run()
    flags, _, _ = run()
    assert flags[6] is True and sum(flags) == 1

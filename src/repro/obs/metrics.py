"""Metrics registry: counters, gauges and histograms keyed by (name, labels).

This is the quantitative half of ``repro.obs``: where the trace layer
answers *when*, the registry answers *how many / how much* — per-sandbox
EMC counts, exit-class breakdowns, page-fault and PKRS-toggle totals,
syscall latency histograms. It supersedes the old ``MonitorStats``
dataclass (now a derived view over the clock's event ledger) and the
benchmark harness's ad-hoc counters: the bench runner snapshots the
registry around every run and attaches the delta to ``results.json``.

Label sets are stored as canonical ``"k=v,k2=v2"`` strings (sorted by
key), which keeps snapshots JSON-able with no conversion. Like the
tracer, the registry never touches the cycle clock; it exists purely on
the host side.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left

#: default histogram bucket upper bounds (simulated cycles)
DEFAULT_BUCKETS = (250, 700, 1300, 2500, 5000, 10_000, 30_000,
                   100_000, 1_000_000)

#: default sliding-window geometry for windowed histograms
DEFAULT_WINDOW_CYCLES = 1_000_000
DEFAULT_WINDOWS = 4


#: (label items, in call-site order) → canonical key. Bounded: label
#: cardinality is small by design (tenants, sandboxes, exit classes);
#: the cap only guards against a pathological unbounded-label caller.
_KEY_CACHE: dict[tuple, str] = {}
_KEY_CACHE_MAX = 4096


def label_key(labels: dict) -> str:
    """Canonical series key for a label dict: ``"k=v,k2=v2"`` sorted.

    The hot path of every counter increment — a fleet run computes
    hundreds of thousands of keys from a few dozen distinct label sets,
    so the sorted join is memoized on the (insertion-ordered) items
    tuple. Two call sites passing the same labels in different kwarg
    order miss each other's cache line but still canonicalize to the
    same key.
    """
    if not labels:
        return ""
    items = tuple(labels.items())
    key = _KEY_CACHE.get(items)
    if key is None:
        key = ",".join(f"{k}={v}" for k, v in sorted(items))
        if len(_KEY_CACHE) < _KEY_CACHE_MAX:
            _KEY_CACHE[items] = key
    return key


def parse_label_key(key: str) -> dict:
    """Inverse of :func:`label_key` (empty string → no labels)."""
    if not key:
        return {}
    return dict(part.split("=", 1) for part in key.split(","))


def labels_match(key: str, match: dict) -> bool:
    """True if the series ``key`` carries every label in ``match``."""
    if not match:
        return True
    labels = parse_label_key(key)
    return all(labels.get(k) == str(v) for k, v in match.items())


class CounterHandle:
    """Pre-resolved writer for one counter series.

    The kwargs form (:meth:`MetricsRegistry.inc`) builds a label dict
    and canonicalizes it on every call; a handle does that resolution
    once, so instrumented hot paths (the EMC gate charges three series
    per round trip, ~100k times per fleet run) pay one dict update per
    write and allocate nothing.
    """

    __slots__ = ("_series", "_key")

    def __init__(self, series: dict, key: str):
        self._series = series
        self._key = key

    def inc(self, value: float = 1) -> None:
        series = self._series
        key = self._key
        series[key] = series.get(key, 0) + value


class HistogramHandle:
    """Pre-resolved writer for one histogram series (see CounterHandle)."""

    __slots__ = ("_hist", "_bounds", "_buckets", "_n")

    def __init__(self, hist: dict):
        self._hist = hist
        self._bounds = hist["bounds"]
        self._buckets = hist["buckets"]
        self._n = len(self._bounds)

    def observe(self, value: float) -> None:
        i = bisect_left(self._bounds, value)
        if i < self._n:
            self._buckets[i] += 1
        hist = self._hist
        hist["sum"] += value
        hist["count"] += 1

    def observe_n(self, value: float, n: int) -> None:
        """Record ``n`` identical samples (batched gate dispatch).

        Exactly equivalent to ``n`` `observe` calls: the bucket, sum and
        count updates all scale linearly in the sample count.
        """
        i = bisect_left(self._bounds, value)
        if i < self._n:
            self._buckets[i] += n
        hist = self._hist
        hist["sum"] += value * n
        hist["count"] += n


class _NullHandle:
    """Write handle of the disabled registry (shared no-op singleton)."""

    __slots__ = ()

    def inc(self, value: float = 1) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def observe_n(self, value: float, n: int) -> None:
        return None


NULL_HANDLE = _NullHandle()


class HandleCache:
    """Per-instrumentation-site cache of pre-resolved write handles.

    Handles bind dicts inside one concrete registry, so a cache must be
    invalidated when the machine's registry identity changes (e.g.
    :func:`repro.obs.install` arming a fresh registry mid-life). Call
    sites do ``handles = cache.get(metrics, key)`` and on a miss build
    the handle tuple and :meth:`put` it; the identity guard is one
    ``is`` check per lookup.
    """

    __slots__ = ("_metrics", "_handles")

    def __init__(self):
        self._metrics = None
        self._handles: dict = {}

    def get(self, metrics, key):
        if self._metrics is not metrics:
            self._metrics = metrics
            self._handles.clear()
        return self._handles.get(key)

    def put(self, key, handles):
        self._handles[key] = handles
        return handles


_SANDBOX_LABELS: dict[int, str] = {}


def sandbox_label(task) -> str:
    """Metrics label attributing an event to a sandbox (or the kernel)."""
    if (task is not None and getattr(task, "kind", "") == "sandbox"
            and getattr(task, "sandbox", None) is not None):
        sandbox_id = task.sandbox.sandbox_id
        label = _SANDBOX_LABELS.get(sandbox_id)
        if label is None:
            label = _SANDBOX_LABELS[sandbox_id] = str(sandbox_id)
        return label
    return "kernel"


class WindowedHistogram:
    """Deterministic sliding-window value store keyed by *cycle* time.

    Frames align to absolute window boundaries — frame ``k`` covers
    simulated cycles ``[k*W, (k+1)*W)`` — so rotation happens at exact
    cycle boundaries and two seeded runs retain byte-identical windows.
    Percentiles use the nearest-rank method over the values of the last
    ``windows`` frames (integer inputs → integer outputs, no
    interpolation drift).
    """

    __slots__ = ("window_cycles", "windows", "_frames")

    def __init__(self, window_cycles: int = DEFAULT_WINDOW_CYCLES,
                 windows: int = DEFAULT_WINDOWS):
        if window_cycles <= 0 or windows <= 0:
            raise ValueError("window_cycles and windows must be positive")
        self.window_cycles = window_cycles
        self.windows = windows
        #: frame index → values observed in that frame (insertion-ordered)
        self._frames: dict[int, list] = {}

    def observe(self, value, cycle: int) -> None:
        frame = cycle // self.window_cycles
        values = self._frames.get(frame)
        if values is None:
            values = self._frames[frame] = []
            # drop frames that slid out of the retention window
            floor = frame - self.windows + 1
            for old in [f for f in self._frames if f < floor]:
                del self._frames[old]
        values.append(value)

    def values(self, cycle: int | None = None) -> list:
        """Retained values; with ``cycle``, only frames still in-window."""
        if cycle is None:
            frames = sorted(self._frames)
        else:
            floor = cycle // self.window_cycles - self.windows + 1
            frames = sorted(f for f in self._frames if f >= floor)
        out: list = []
        for f in frames:
            out.extend(self._frames[f])
        return out

    @property
    def count(self) -> int:
        return sum(len(v) for v in self._frames.values())

    def quantile(self, q: float, cycle: int | None = None):
        """Nearest-rank quantile of the retained values (None if empty)."""
        values = sorted(self.values(cycle))
        if not values:
            return None
        rank = min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))
        return values[rank]

    def quantiles(self, cycle: int | None = None) -> dict:
        """The p50/p95/p99 summary the SLO monitors and snapshots use."""
        values = sorted(self.values(cycle))
        if not values:
            return {"count": 0, "p50": None, "p95": None, "p99": None}
        def rank(q):
            return values[min(len(values) - 1,
                              max(0, math.ceil(q * len(values)) - 1))]
        return {"count": len(values), "p50": rank(0.50),
                "p95": rank(0.95), "p99": rank(0.99)}

    def __repr__(self) -> str:
        return (f"WindowedHistogram({self.count} values over "
                f"{len(self._frames)}/{self.windows} x "
                f"{self.window_cycles}-cycle frames)")


class EwmaDetector:
    """One-sided EWMA baseline detector: flags samples far above trend.

    Tracks an exponentially-weighted mean and variance; a sample is
    anomalous when it exceeds ``mean + threshold * spread`` after at
    least ``min_samples`` baseline observations, where spread is the
    EWMA standard deviation floored at 5% of the mean (so a perfectly
    flat baseline still tolerates jitter). Anomalous samples are *not*
    absorbed into the baseline — an attacker cannot drag the trend up.
    Pure float arithmetic, no RNG: deterministic across reruns.
    """

    __slots__ = ("alpha", "threshold", "min_samples", "mean", "var",
                 "samples")

    def __init__(self, alpha: float = 0.3, threshold: float = 3.0,
                 min_samples: int = 4):
        self.alpha = alpha
        self.threshold = threshold
        self.min_samples = min_samples
        self.mean = 0.0
        self.var = 0.0
        self.samples = 0

    @property
    def spread(self) -> float:
        return max(math.sqrt(self.var), 0.05 * abs(self.mean), 1e-9)

    def update(self, value: float) -> bool:
        """Feed one sample; returns True when it is anomalous."""
        if self.samples >= self.min_samples:
            if value > self.mean + self.threshold * self.spread:
                return True
        self.samples += 1
        if self.samples == 1:
            self.mean = float(value)
            self.var = 0.0
            return False
        delta = value - self.mean
        self.mean += self.alpha * delta
        self.var = (1 - self.alpha) * (self.var + self.alpha * delta * delta)
        return False

    def __repr__(self) -> str:
        return (f"EwmaDetector(mean={self.mean:.3f}, "
                f"spread={self.spread:.3f}, samples={self.samples})")


class NullMetrics:
    """No-op registry: the default on every clock (observability off)."""

    enabled = False
    __slots__ = ()

    def describe(self, name: str, help: str = "",
                 buckets: tuple | None = None) -> None:
        return None

    def inc(self, name: str, value: float = 1, /, **labels) -> None:
        return None

    def set_gauge(self, name: str, value: float, /, **labels) -> None:
        return None

    def observe(self, name: str, value: float, /, **labels) -> None:
        return None

    def exemplar(self, name: str, trace_id: str, /, **labels) -> None:
        return None

    def counter_handle(self, name: str, /, **labels) -> _NullHandle:
        return NULL_HANDLE

    def histogram_handle(self, name: str, /, **labels) -> _NullHandle:
        return NULL_HANDLE

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: the shared disabled registry
NULL_METRICS = NullMetrics()


class MetricsRegistry(NullMetrics):
    """Live metrics store for one simulated machine."""

    enabled = True
    __slots__ = ("counters", "gauges", "histograms", "windowed",
                 "exemplars", "_help", "_buckets")

    def __init__(self):
        self.counters: dict[str, dict[str, float]] = {}
        self.gauges: dict[str, dict[str, float]] = {}
        #: name → key → {"buckets": [..], "sum": s, "count": n}
        self.histograms: dict[str, dict[str, dict]] = {}
        #: name → key → WindowedHistogram (cycle-time sliding windows),
        #: registered by their owner (the fleet SLO monitor) and read
        #: only at snapshot time — the owner's histogram is the series
        self.windowed: dict[str, dict[str, WindowedHistogram]] = {}
        #: name → key → last-seen request trace ID (OpenMetrics-style)
        self.exemplars: dict[str, dict[str, str]] = {}
        self._help: dict[str, str] = {}
        self._buckets: dict[str, tuple] = {}

    # -- registration ---------------------------------------------------- #

    def describe(self, name: str, help: str = "",
                 buckets: tuple | None = None) -> None:
        """Attach help text (Prometheus ``# HELP``) and histogram buckets."""
        if help:
            self._help[name] = help
        if buckets is not None:
            self._buckets[name] = tuple(sorted(buckets))

    # -- writes ---------------------------------------------------------- #

    def inc(self, name: str, value: float = 1, /, **labels) -> None:
        series = self.counters.setdefault(name, {})
        key = label_key(labels)
        series[key] = series.get(key, 0) + value

    def set_gauge(self, name: str, value: float, /, **labels) -> None:
        self.gauges.setdefault(name, {})[label_key(labels)] = value

    def observe(self, name: str, value: float, /, **labels) -> None:
        bounds = self._buckets.get(name, DEFAULT_BUCKETS)
        series = self.histograms.setdefault(name, {})
        key = label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = {"bounds": list(bounds),
                                  "buckets": [0] * len(bounds),
                                  "sum": 0, "count": 0}
        # first bound >= value (bounds are sorted: binary, not linear)
        i = bisect_left(hist["bounds"], value)
        if i < len(hist["buckets"]):
            hist["buckets"][i] += 1
        hist["sum"] += value
        hist["count"] += 1

    def counter_handle(self, name: str, /, **labels) -> CounterHandle:
        """Resolve one counter series to a reusable write handle.

        The handle stays valid for the life of the registry; callers
        cache it per label set and call ``handle.inc(v)`` on the hot
        path instead of :meth:`inc`. No series entry is materialized
        until the first write.
        """
        return CounterHandle(self.counters.setdefault(name, {}),
                             label_key(labels))

    def histogram_handle(self, name: str, /, **labels) -> HistogramHandle:
        """Resolve one histogram series to a reusable write handle.

        Materializes the (empty) histogram eagerly so the handle can
        bind its bucket list; bounds come from :meth:`describe` as with
        :meth:`observe`.
        """
        series = self.histograms.setdefault(name, {})
        key = label_key(labels)
        hist = series.get(key)
        if hist is None:
            bounds = self._buckets.get(name, DEFAULT_BUCKETS)
            hist = series[key] = {"bounds": list(bounds),
                                  "buckets": [0] * len(bounds),
                                  "sum": 0, "count": 0}
        return HistogramHandle(hist)

    def exemplar(self, name: str, trace_id: str, /, **labels) -> None:
        """Attach a request trace ID to a series as its exemplar.

        Last-writer-wins, OpenMetrics style: the series answers *what
        happened*, the exemplar names one concrete request to pull the
        causal span tree for (``repro.obs.reqtrace`` resolves it). No-op
        for an empty ID so call sites need no guard.
        """
        if trace_id:
            self.exemplars.setdefault(name, {})[label_key(labels)] = trace_id

    # -- reads ----------------------------------------------------------- #

    def counter_value(self, name: str, /, **labels) -> float:
        return self.counters.get(name, {}).get(label_key(labels), 0)

    def counter_total(self, name: str, /, **match) -> float:
        """Sum a counter across all series matching the label subset."""
        return sum(v for key, v in self.counters.get(name, {}).items()
                   if labels_match(key, match))

    def snapshot(self) -> dict:
        """Deep-copied, JSON-able view of every series."""
        windowed = {}
        for name, series in self.windowed.items():
            windowed[name] = {}
            for key, hist in series.items():
                summary = hist.quantiles()
                summary["window_cycles"] = hist.window_cycles
                summary["windows"] = hist.windows
                windowed[name][key] = summary
        return {
            "counters": {n: dict(s) for n, s in self.counters.items()},
            "gauges": {n: dict(s) for n, s in self.gauges.items()},
            "histograms": copy.deepcopy(self.histograms),
            "windowed": windowed,
            "exemplars": {n: dict(s) for n, s in self.exemplars.items()},
        }

    def delta_since(self, snap: dict) -> dict:
        """Interval view: counters/histograms since ``snap``, gauges live."""
        return snapshot_delta(self.snapshot(), snap)


def snapshot_delta(new: dict, old: dict) -> dict:
    """Subtract two :meth:`MetricsRegistry.snapshot` dicts (new - old)."""
    counters: dict = {}
    for name, series in new["counters"].items():
        base = old["counters"].get(name, {})
        delta = {k: v - base.get(k, 0) for k, v in series.items()
                 if v - base.get(k, 0)}
        if delta:
            counters[name] = delta
    histograms: dict = {}
    for name, series in new["histograms"].items():
        base = old["histograms"].get(name, {})
        out_series = {}
        for key, hist in series.items():
            b = base.get(key)
            if b is None:
                out_series[key] = copy.deepcopy(hist)
                continue
            diff = {
                "bounds": list(hist["bounds"]),
                "buckets": [x - y for x, y in zip(hist["buckets"],
                                                  b["buckets"])],
                "sum": hist["sum"] - b["sum"],
                "count": hist["count"] - b["count"],
            }
            if diff["count"]:
                out_series[key] = diff
        if out_series:
            histograms[name] = out_series
    return {"counters": counters,
            "gauges": {n: dict(s) for n, s in new["gauges"].items()},
            "histograms": histograms}


def snapshot_counter_total(snapshot: dict, name: str, /, **match) -> float:
    """Sum a counter in a snapshot dict across matching label sets."""
    return sum(v for key, v in snapshot.get("counters", {})
               .get(name, {}).items() if labels_match(key, match))

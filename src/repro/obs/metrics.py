"""Streaming metrics: counters, gauges, log-bucket histograms.

The end-of-run aggregates in :mod:`repro.runtime.metrics` collect
waits and latencies in a *sink*: :class:`ExactSamples` keeps every
value — exact, but O(requests) memory, which cannot survive a soak run
against ``repro serve`` — and :class:`Histogram` is the O(1)
counterpart; both support ``observe``, ``percentile`` and ``merge``.
The histogram also backs a :class:`MetricsRegistry` of typed
instruments whose state size is fixed no matter how many observations
flow through, designed for the same determinism contract as the rest
of the repo — all timestamps are the caller's *virtual* (or hybrid)
clock seconds, nothing reads wall time, and
:meth:`MetricsRegistry.snapshot_json` serializes byte-identically for
byte-identical observation streams.

* :func:`percentile` / :class:`ExactSamples` — the exact sink;
  :func:`metric_sink` picks it or a :class:`Histogram`.
* :class:`Counter` — monotone float total, with optional sliding
  :class:`RateWindow` views over virtual time.
* :class:`Gauge` — last-write-wins level.
* :class:`Histogram` — fixed-boundary log-bucket histogram.  With the
  default boundaries (:func:`log_boundaries`, 30 buckets per decade
  over [1e-7 s, 1e2 s]) any quantile that falls in a regular bucket is
  reconstructed to within :attr:`Histogram.error_bound` relative error
  (≈ 3.9 %): the estimate is the geometric midpoint of the bucket
  holding the nearest-rank order statistic, clamped into the exact
  observed ``[min, max]``.  Histograms with equal boundaries merge by
  bucket-count addition, so per-epoch and per-tenant histograms
  aggregate exactly (counts are integers; ``sum`` adds floats in
  argument order).
* Prometheus-style text exposition (:func:`to_prom_text`) rendered
  from a snapshot — so both a live server and a saved
  ``--metrics-out`` file can serve the same format — plus
  :func:`parse_prom_text` so tests and CI can assert the exposition
  is well formed without a Prometheus client.

This module must import nothing outside the standard library:
:mod:`repro.runtime.metrics` imports it, and ``repro.obs`` must stay
importable from the runtime package without a cycle.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from collections import deque
from typing import (Any, Deque, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

__all__ = [
    "percentile",
    "ExactSamples",
    "Sink",
    "metric_sink",
    "log_boundaries",
    "Histogram",
    "Counter",
    "Gauge",
    "RateWindow",
    "MetricsRegistry",
    "metric_id",
    "to_prom_text",
    "parse_prom_text",
]

#: Default histogram range: 100 ns .. 100 s of virtual time covers
#: every latency the simulated XD1 produces (single dot products run
#: microseconds; a 100k-request epoch's tail sits well under a second).
DEFAULT_LO = 1e-7
DEFAULT_HI = 1e2
DEFAULT_PER_DECADE = 30


def log_boundaries(lo: float = DEFAULT_LO, hi: float = DEFAULT_HI,
                   per_decade: int = DEFAULT_PER_DECADE
                   ) -> Tuple[float, ...]:
    """Logarithmically spaced bucket boundaries ``lo · r^i`` with
    ``r = 10^(1/per_decade)``, ending at the first boundary ≥ ``hi``."""
    if lo <= 0.0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    decades = math.log10(hi / lo)
    steps = math.ceil(decades * per_decade - 1e-9)
    return tuple(lo * 10.0 ** (i / per_decade) for i in range(steps + 1))


_DEFAULT_BOUNDARIES = log_boundaries()


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (deterministic, numpy-free so
    the schema does not depend on numpy version behavior).

    This is the repo's *single* exact percentile implementation
    (``repro.runtime.metrics`` and ``repro.serve.loadgen`` re-export
    it).  It needs the full value list, so it is O(requests) memory —
    long-lived paths should prefer the bounded-error
    :class:`Histogram` sink that ``TenantMetrics``/``RuntimeMetrics``
    use in bounded mode (``BlasRuntime(bounded_metrics=True)``); keep
    this for tests and offline reports where exactness matters."""
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must be in [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class ExactSamples:
    """Sink that keeps every observed value: exact :func:`percentile`
    results at O(observations) memory.  :class:`Histogram` is the
    bounded sink with the same ``observe``/``percentile``/``merge``."""

    def __init__(self) -> None:
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    def percentile(self, pct: float) -> float:
        return percentile(self.values, pct)

    def merge(self, other: "ExactSamples | Histogram") -> "ExactSamples":
        """Fold ``other`` in; a histogram cannot be, since its exact
        values are gone."""
        if not isinstance(other, ExactSamples):
            raise ValueError(
                "cannot merge a histogram into exact samples (the "
                "exact values are gone)")
        self.values.extend(other.values)
        return self


class Histogram:
    """Fixed-boundary histogram with bounded-error quantiles.

    Values ≤ 0 land in a dedicated zero bucket (virtual-time waits are
    often exactly 0.0 and must reconstruct exactly); values below the
    first boundary land in an underflow bucket reported as the exact
    observed minimum; values past the last boundary report the exact
    observed maximum.  Everything in between is within
    :attr:`error_bound` relative error of the true nearest-rank order
    statistic.  State size is fixed: ``len(boundaries) + O(1)`` ints.
    """

    def __init__(self,
                 boundaries: Optional[Sequence[float]] = None) -> None:
        bounds = (_DEFAULT_BOUNDARIES if boundaries is None
                  else tuple(float(b) for b in boundaries))
        if len(bounds) < 2:
            raise ValueError("need at least two boundaries")
        for lo, hi in zip(bounds, bounds[1:]):
            if not lo < hi:
                raise ValueError(
                    "boundaries must be strictly increasing")
        if bounds[0] <= 0.0:
            raise ValueError("boundaries must be positive "
                             "(<= 0 has its own zero bucket)")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) - 1)
        self.zero_count = 0
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    @property
    def error_bound(self) -> float:
        """Worst-case relative error of a quantile that falls in a
        regular bucket: geometric-midpoint reporting gives
        ``sqrt(hi/lo) − 1`` of the widest bucket."""
        worst = max(hi / lo for lo, hi
                    in zip(self.boundaries, self.boundaries[1:]))
        return math.sqrt(worst) - 1.0

    # -- recording -------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
        elif value < self.boundaries[0]:
            self.underflow += 1
        elif value >= self.boundaries[-1]:
            self.overflow += 1
        else:
            self.counts[bisect.bisect_right(self.boundaries,
                                            value) - 1] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    # -- reconstruction --------------------------------------------------
    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate, ``q`` in [0, 1].

        Exact for the zero bucket and at the extremes (rank 1 clamps
        to ``min``, rank ``count`` to ``max``); elsewhere within
        :attr:`error_bound` relative error.  Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cum = self.zero_count
        if rank <= cum:
            return self.min if self.min < 0.0 else 0.0
        cum += self.underflow
        if rank <= cum:
            return self._clamp(self.boundaries[0])
        for index, bucket in enumerate(self.counts):
            cum += bucket
            if rank <= cum:
                lo = self.boundaries[index]
                hi = self.boundaries[index + 1]
                return self._clamp(math.sqrt(lo * hi))
        return self.max

    def _clamp(self, estimate: float) -> float:
        return min(max(estimate, self.min), self.max)

    def percentile(self, pct: float) -> float:
        """:meth:`quantile` on the 0-100 scale of :func:`percentile`."""
        return self.quantile(pct / 100.0)

    # -- aggregation -----------------------------------------------------
    def merge(self, other: "Histogram | ExactSamples") -> "Histogram":
        """Fold ``other`` into this histogram.

        An :class:`ExactSamples` sink folds in by observing its values.
        Histograms need equal boundaries: bucket counts add exactly;
        ``sum`` adds floats, so merge is associative up to float
        addition (exactly associative for dyadic values).  Returns
        ``self``.
        """
        if isinstance(other, ExactSamples):
            self.observe_many(other.values)
            return self
        if other.boundaries != self.boundaries:
            raise ValueError("cannot merge histograms with different "
                             "boundaries")
        for index, bucket in enumerate(other.counts):
            self.counts[index] += bucket
        self.zero_count += other.zero_count
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    # -- export ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-stable state: sparse non-empty buckets as
        ``[upper_boundary, count]`` pairs plus p50/p90/p99."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zero": self.zero_count,
            "underflow": self.underflow,
            "overflow": self.overflow,
            "buckets": [[self.boundaries[i + 1], c]
                        for i, c in enumerate(self.counts) if c],
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


#: Where a metrics block collects waits and latencies.
Sink = Union[ExactSamples, Histogram]


def metric_sink(bounded: bool) -> Sink:
    """A wait/latency sink: an O(1) :class:`Histogram` (percentiles
    within its documented relative error) in bounded mode —
    ``BlasRuntime(bounded_metrics=True)`` — else exact samples."""
    return Histogram() if bounded else ExactSamples()


class RateWindow:
    """Per-bucket sums over a sliding window of virtual time.

    The window is a ring of ``buckets`` fixed-resolution slots; adding
    at timestamp ``ts`` accumulates into slot ``ts // resolution`` and
    querying at ``now`` sums the slots inside ``(now − window, now]``.
    Memory is O(buckets) regardless of event count.  Timestamps must
    come from the deterministic clock; an out-of-order add older than
    the window is dropped (counted in ``late_drops``), so a replayed
    stream always reproduces the same sums.
    """

    def __init__(self, window: float, buckets: int = 20) -> None:
        if window <= 0.0:
            raise ValueError("window must be positive")
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.window = float(window)
        self.buckets = buckets
        self.resolution = self.window / buckets
        #: (slot index, accumulated amount), slot-ascending.
        self._slots: Deque[List[float]] = deque()
        self.late_drops = 0

    def _slot(self, ts: float) -> int:
        return int(ts // self.resolution)

    def add(self, ts: float, amount: float = 1.0) -> None:
        slot = self._slot(ts)
        if not self._slots or slot > self._slots[-1][0]:
            self._slots.append([slot, amount])
            self._evict(slot)
            return
        if slot <= self._slots[-1][0] - self.buckets:
            self.late_drops += 1
            return
        for held in self._slots:
            if held[0] == slot:
                held[1] += amount
                return
        # In-range slot with no entry yet: insert keeping slot order.
        index = 0
        for index, held in enumerate(self._slots):
            if held[0] > slot:
                break
        self._slots.insert(index, [slot, amount])

    def _evict(self, newest_slot: int) -> None:
        oldest_kept = newest_slot - self.buckets + 1
        while self._slots and self._slots[0][0] < oldest_kept:
            self._slots.popleft()

    def sum(self, now: float) -> float:
        oldest_kept = self._slot(now) - self.buckets + 1
        return math.fsum(amount for slot, amount in self._slots
                         if slot >= oldest_kept)

    def rate(self, now: float) -> float:
        """Events (or amount) per virtual second over the window."""
        return self.sum(now) / self.window


class Counter:
    """Monotone total with optional sliding-window rate views."""

    def __init__(self, windows: Sequence[float] = ()) -> None:
        self.value = 0.0
        self._windows: Dict[float, RateWindow] = {
            float(w): RateWindow(w) for w in windows}

    def inc(self, amount: float = 1.0,
            at: Optional[float] = None) -> None:
        if amount < 0.0:
            raise ValueError("counters only go up")
        self.value += amount
        if at is not None:
            for window in self._windows.values():
                window.add(at, amount)

    def rate(self, window: float, now: float) -> float:
        try:
            return self._windows[float(window)].rate(now)
        except KeyError:
            raise ValueError(
                f"no {window}s rate window configured; available: "
                f"{sorted(self._windows)}") from None

    def combine(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Last-write-wins level (queue depth, pending count)."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def combine(self, other: "Gauge") -> None:
        self.value = other.value

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


def metric_id(name: str, labels: Optional[Mapping[str, str]] = None
              ) -> str:
    """Canonical identity string: ``name`` or ``name{k="v",…}`` with
    label keys sorted — the snapshot key and exposition identity."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"'
                     for key in sorted(labels))
    return f"{name}{{{inner}}}"


_TYPES = ("counter", "gauge", "histogram")


class MetricsRegistry:
    """Get-or-create home of every instrument, one per (name, labels).

    Registration is idempotent; asking for an existing name with a
    different type raises.  ``snapshot()`` is a plain dict sorted by
    identity, and ``snapshot_json()`` is canonical JSON — two
    registries fed the same observation stream serialize
    byte-identically, which is the replay contract ``repro serve
    --metrics-out`` pins in CI.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._types: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    def _get(self, kind: str, name: str,
             labels: Optional[Mapping[str, str]],
             help: str, factory: Any) -> Any:
        if not name:
            raise ValueError("metric name must be non-empty")
        family_type = self._types.get(name)
        if family_type is not None and family_type != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{family_type}, not {kind}")
        ident = metric_id(name, labels)
        metric = self._metrics.get(ident)
        if metric is None:
            metric = factory()
            self._metrics[ident] = metric
            self._types[name] = kind
            if help:
                self._help[name] = help
        return metric

    def counter(self, name: str, *, help: str = "",
                labels: Optional[Mapping[str, str]] = None,
                windows: Sequence[float] = ()) -> Counter:
        return self._get("counter", name, labels, help,
                         lambda: Counter(windows=windows))

    def gauge(self, name: str, *, help: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._get("gauge", name, labels, help, Gauge)

    def histogram(self, name: str, *, help: str = "",
                  labels: Optional[Mapping[str, str]] = None,
                  boundaries: Optional[Sequence[float]] = None
                  ) -> Histogram:
        return self._get("histogram", name, labels, help,
                         lambda: Histogram(boundaries=boundaries))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- aggregation -----------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry in: counters add, gauges take the
        other's level, histograms bucket-merge.  Instruments missing
        here are created with the other's type.  Returns ``self``."""
        for ident, metric in other._metrics.items():
            name = ident.split("{", 1)[0]
            kind = other._types[name]
            family_type = self._types.get(name)
            if family_type is not None and family_type != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family_type}, not {kind}")
            mine = self._metrics.get(ident)
            if mine is None:
                if kind == "histogram":
                    mine = Histogram(boundaries=metric.boundaries)
                elif kind == "counter":
                    mine = Counter()
                else:
                    mine = Gauge()
                self._metrics[ident] = mine
                self._types[name] = kind
                if name in other._help and name not in self._help:
                    self._help[name] = other._help[name]
            if kind == "histogram":
                mine.merge(metric)
            else:
                mine.combine(metric)
        return self

    # -- export ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        metrics = {}
        for ident in sorted(self._metrics):
            name = ident.split("{", 1)[0]
            entry = {"type": self._types[name]}
            entry.update(self._metrics[ident].snapshot())
            metrics[ident] = entry
        return {"metrics": metrics}

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def prom_text(self) -> str:
        return to_prom_text(self.snapshot())


# -- Prometheus-style exposition -----------------------------------------
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""  # first label
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (\S+)$")


def _prom_name(name: str) -> str:
    return _NAME_SANITIZE.sub("_", name)


def _split_ident(ident: str) -> Tuple[str, str]:
    """``name{labels}`` → (prom name, ``{labels}`` or empty)."""
    if "{" in ident:
        name, labels = ident.split("{", 1)
        return _prom_name(name), "{" + labels
    return _prom_name(ident), ""


def _fmt(value: float) -> str:
    if value != value or value in (math.inf, -math.inf):
        return "NaN" if value != value else (
            "+Inf" if value > 0 else "-Inf")
    return repr(float(value))


def to_prom_text(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text.

    Counters and gauges become one sample each; histograms become
    cumulative ``_bucket{le=…}`` samples (non-empty buckets plus the
    mandatory ``+Inf``), ``_sum`` and ``_count``.  Deterministic:
    identities are already sorted in the snapshot."""
    lines: List[str] = []
    typed: Dict[str, str] = {}
    for ident, entry in snapshot.get("metrics", {}).items():
        name, labels = _split_ident(ident)
        kind = entry["type"]
        if name not in typed:
            typed[name] = kind
            lines.append(f"# TYPE {name} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(f"{name}{labels} {_fmt(entry['value'])}")
            continue
        base = labels[1:-1] + "," if labels else ""
        cum = entry["zero"] + entry["underflow"]
        for le, bucket_count in entry["buckets"]:
            cum += bucket_count
            lines.append(f'{name}_bucket{{{base}le="{_fmt(le)}"}} '
                         f"{cum}")
        lines.append(f'{name}_bucket{{{base}le="+Inf"}} '
                     f"{entry['count']}")
        lines.append(f"{name}_sum{labels} {_fmt(entry['sum'])}")
        lines.append(f"{name}_count{labels} {entry['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_prom_text(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{identity: value}``.

    Strict enough for CI to catch a malformed exposition: every
    non-comment line must match the sample grammar, and histogram
    ``_bucket`` series must be cumulative (non-decreasing toward
    ``+Inf``).  Raises :class:`ValueError` otherwise."""
    samples: Dict[str, float] = {}
    last_bucket: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(
                f"line {lineno} is not a valid sample: {line!r}")
        name, labels, raw = match.groups()
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"line {lineno} has a non-numeric value: "
                f"{raw!r}") from None
        ident = f"{name}{labels or ''}"
        if ident in samples:
            raise ValueError(f"duplicate sample {ident!r}")
        samples[ident] = value
        if name.endswith("_bucket"):
            series = name + re.sub(r',?le="[^"]*"', "", labels or "")
            floor = last_bucket.get(series)
            if floor is not None and value < floor:
                raise ValueError(
                    f"line {lineno}: bucket series {series!r} is not "
                    f"cumulative ({value} < {floor})")
            last_bucket[series] = value
    return samples

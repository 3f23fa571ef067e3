"""Metric primitives: lock-guarded counters, gauges and log-scale histograms.

Design constraints (the telemetry PR's contract):

* **Free when off.** The process-wide default registry is a
  :class:`NullRegistry` whose instruments are one shared no-op object, so an
  un-instrumented run pays a single attribute call per metric site — nothing
  allocates, nothing locks, nothing formats.
* **Labeled series.** A metric *family* (``darwin_phase_seconds``) fans out
  into labeled children (``{phase="propose"}``); hot paths resolve their
  child once at construction time and then call ``inc``/``observe`` on it.
* **Pull collectors for cold state.** Components whose interesting numbers
  already live in their own fields (cache hit counters, residency bytes,
  per-tenant stats) register a *collector* callback that re-expresses them as
  gauges when a snapshot or exposition is rendered — zero hot-path cost.
  Collectors are held by weak reference so a registry never pins a closed
  pool or a finished engine.
* **Two exporters.** :meth:`MetricsRegistry.snapshot` produces a structured
  JSON-able dict (the ``--metrics-out`` payload and the checkpoint manifest
  block); :meth:`MetricsRegistry.render_prometheus` renders the same state in
  Prometheus text exposition format (the future gateway's ``/metrics`` body).
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

# Fixed log-scale latency buckets: sqrt(2) steps from 1 microsecond to ~24
# seconds (50 bounds), +Inf implicit. Half-octave resolution keeps quantile
# estimates within ~±20% — enough to diff tail latency between bench runs —
# while the bucket array stays one cache line of int64 counts.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = tuple(
    1e-6 * (2.0 ** (i / 2.0)) for i in range(50)
)

_KINDS = ("counter", "gauge", "histogram")


class _NullInstrument:
    """The shared no-op instrument every :class:`NullRegistry` hands out.

    Implements the union of the Counter/Gauge/Histogram child APIs so any
    metric site works unchanged; every method is a plain ``pass``, which is
    what makes the disabled path effectively free.
    """

    __slots__ = ()

    def labels(self, **_labels) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


NULL_INSTRUMENT = _NullInstrument()


class _Child:
    """One labeled series of a family; shares the family's lock."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount


class _GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, bounds: Sequence[float]) -> None:
        self._lock = lock
        self._bounds = list(bounds)
        self._counts = [0] * (len(self._bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect_left makes each bound an *inclusive* upper edge (Prometheus
        # `le` semantics): observe(b) lands in the bucket whose le == b.
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (0.0 with no observations)."""
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            target = q * total
            cumulative = 0
            for index, count in enumerate(self._counts):
                cumulative += count
                if cumulative >= target:
                    upper = (
                        self._bounds[index]
                        if index < len(self._bounds)
                        else self._bounds[-1] * 2.0 if self._bounds else float("inf")
                    )
                    lower = self._bounds[index - 1] if index > 0 else 0.0
                    if count == 0:
                        return upper
                    fraction = (target - (cumulative - count)) / count
                    return lower + (upper - lower) * fraction
            return self._bounds[-1] if self._bounds else 0.0


class MetricFamily:
    """A named metric with a fixed label schema, fanning out into children.

    Obtained from :meth:`MetricsRegistry.counter` / ``gauge`` /
    ``histogram``; calling the same constructor again with the same name
    returns the same family (idempotent), while a kind or label-schema
    mismatch raises :class:`~repro.errors.ConfigurationError` loudly instead
    of silently splitting the series.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._buckets = list(buckets if buckets is not None else DEFAULT_TIME_BUCKETS)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        self._default = None if self.label_names else self.labels()

    # ------------------------------------------------------------- children
    def labels(self, **labels: object):
        """The child series for one label assignment (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "counter":
                    child = _CounterChild(self._lock)
                elif self.kind == "gauge":
                    child = _GaugeChild(self._lock)
                else:
                    child = _HistogramChild(self._lock, self._buckets)
                self._children[key] = child
        return child

    # --------------------------------------------- unlabeled convenience API
    def inc(self, amount: float = 1.0) -> None:
        self._require_unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_unlabeled().dec(amount)

    def set(self, value: float) -> None:
        self._require_unlabeled().set(value)

    def observe(self, value: float) -> None:
        self._require_unlabeled().observe(value)

    @property
    def value(self) -> float:
        return self._require_unlabeled().value

    def _require_unlabeled(self):
        if self._default is None:
            raise ConfigurationError(
                f"metric {self.name!r} is labeled {self.label_names}; "
                f"resolve a child with .labels(...) first"
            )
        return self._default

    # -------------------------------------------------------------- snapshot
    def snapshot_entry(self) -> Dict[str, object]:
        """This family's JSON-able snapshot block (sorted, stable series order)."""
        series: List[Dict[str, object]] = []
        with self._lock:
            items = sorted(self._children.items())
        for key, child in items:
            labels = dict(zip(self.label_names, key))
            if self.kind == "histogram":
                assert isinstance(child, _HistogramChild)
                cumulative = 0
                buckets: List[List[object]] = []
                for bound, count in zip(child._bounds, child._counts):
                    cumulative += count
                    buckets.append([bound, cumulative])
                buckets.append(["+Inf", child.count])
                mean = child.sum / child.count if child.count else 0.0
                series.append({
                    "labels": labels,
                    "count": child.count,
                    "sum": child.sum,
                    "mean": mean,
                    "p50": child.quantile(0.5),
                    "p95": child.quantile(0.95),
                    "buckets": buckets,
                })
            else:
                series.append({"labels": labels, "value": child.value})
        return {
            "kind": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": series,
        }


class MetricsRegistry:
    """Process-wide registry of metric families plus pull collectors.

    Thread-safe: family creation is guarded by the registry lock, every
    series mutation by its family lock. Enable one as the process default
    with :func:`repro.obs.enable` (or swap it in with
    :func:`repro.obs.set_registry`).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}
        # Weak callbacks: a registry must never keep a closed pool or a
        # finished engine alive just to read its gauges.
        self._collectors: List[object] = []

    # -------------------------------------------------------------- families
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, kind, help=help, label_names=labels, buckets=buckets
                )
                self._families[name] = family
                return family
        if family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} is already registered as a {family.kind}, "
                f"not a {kind}"
            )
        if family.label_names != tuple(labels):
            raise ConfigurationError(
                f"metric {name!r} is already registered with labels "
                f"{family.label_names}, not {tuple(labels)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """A monotonically-increasing counter family."""
        return self._family(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """A set/inc/dec gauge family."""
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        """A fixed-bucket histogram family (default: log-scale seconds)."""
        return self._family(name, "histogram", help, labels, buckets=buckets)

    # ------------------------------------------------------------ collectors
    def register_collector(self, callback: Callable[[], None]) -> None:
        """Register a pull callback run before every snapshot/render.

        Bound methods are held via :class:`weakref.WeakMethod`; plain
        callables by strong reference. Dead callbacks are pruned silently.
        """
        entry = (
            weakref.WeakMethod(callback)
            if hasattr(callback, "__self__")
            else callback
        )
        with self._lock:
            self._collectors.append(entry)

    def collect(self) -> None:
        """Run every live collector (cold path; snapshot/render call this)."""
        with self._lock:
            collectors = list(self._collectors)
        dead: List[object] = []
        for entry in collectors:
            callback = entry() if isinstance(entry, weakref.WeakMethod) else entry
            if callback is None:
                dead.append(entry)
                continue
            callback()
        if dead:
            with self._lock:
                self._collectors = [
                    entry for entry in self._collectors if entry not in dead
                ]

    # ------------------------------------------------------------- exporters
    def snapshot(self) -> Dict[str, object]:
        """Structured JSON-able snapshot of every family and series."""
        self.collect()
        with self._lock:
            families = dict(self._families)
        return {
            "enabled": True,
            "metrics": {
                name: families[name].snapshot_entry() for name in sorted(families)
            },
        }

    def render_prometheus(self) -> str:
        """The registry's state in Prometheus text exposition format."""
        from .prometheus import render_snapshot

        return render_snapshot(self.snapshot())


class NullRegistry:
    """The disabled registry: every instrument is the shared no-op object."""

    enabled = False

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        return NULL_INSTRUMENT

    def register_collector(self, callback: Callable[[], None]) -> None:
        pass

    def collect(self) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"enabled": False, "metrics": {}}

    def render_prometheus(self) -> str:
        return "# repro.obs: metrics disabled (NullRegistry)\n"


def summarize_snapshot(snapshot: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Compact human-facing digest of a :meth:`MetricsRegistry.snapshot`.

    Used by ``repro stats`` and ``DarwinEngine.describe_checkpoint`` to
    answer "what has this engine done" without dumping every series:
    questions asked (yes/no), classifier retrains, per-phase latency
    (count / mean / p50 / p95 in ms), and cache hit ratios. Returns ``{}``
    for a missing or disabled snapshot.
    """
    if not snapshot or not snapshot.get("enabled"):
        return {}
    metrics = snapshot.get("metrics", {})
    if not isinstance(metrics, dict):
        return {}
    summary: Dict[str, object] = {}

    def _series(name: str):
        family = metrics.get(name)
        if not isinstance(family, dict):
            return []
        return family.get("series", [])

    def _total(name: str, **match: str) -> float:
        total = 0.0
        for entry in _series(name):
            labels = entry.get("labels", {})
            if all(labels.get(k) == v for k, v in match.items()):
                total += float(entry.get("value", 0.0))
        return total

    questions = _series("darwin_questions_total")
    if questions:
        yes = _total("darwin_questions_total", answer="yes")
        no = _total("darwin_questions_total", answer="no")
        summary["questions"] = {"yes": yes, "no": no, "total": yes + no}
    retrains = _series("darwin_retrains_total")
    if retrains:
        summary["retrains"] = _total("darwin_retrains_total")
    phases: Dict[str, object] = {}
    for entry in _series("darwin_phase_seconds"):
        phase = entry.get("labels", {}).get("phase", "")
        phases[phase] = {
            "count": entry.get("count", 0),
            "mean_ms": 1000.0 * float(entry.get("mean", 0.0)),
            "p50_ms": 1000.0 * float(entry.get("p50", 0.0)),
            "p95_ms": 1000.0 * float(entry.get("p95", 0.0)),
        }
    if phases:
        summary["phases"] = phases
    hits = _total("feature_cache_hits")
    misses = _total("feature_cache_misses")
    if hits or misses:
        summary["feature_cache"] = {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / (hits + misses),
        }
    commits = _series("crowd_commits_total")
    if commits:
        summary["crowd_commits"] = {
            "accept": _total("crowd_commits_total", outcome="accept"),
            "reject": _total("crowd_commits_total", outcome="reject"),
        }
    requests = _series("gateway_requests_total")
    if requests:
        total = _total("gateway_requests_total")
        rejected = sum(
            float(entry.get("value", 0.0))
            for entry in _series("gateway_rejected_total")
        )
        errors = sum(
            float(entry.get("value", 0.0))
            for entry in requests
            if str(entry.get("labels", {}).get("status", "")).startswith("5")
        )
        summary["gateway"] = {
            "requests": total,
            "rejected": rejected,
            "errors_5xx": errors,
            "by_route": _label_totals(requests, "route"),
        }
    return summary


def _label_totals(series, label: str) -> Dict[str, float]:
    """Series values summed per value of one label (snapshot digests)."""
    totals: Dict[str, float] = {}
    for entry in series:
        key = str(entry.get("labels", {}).get(label, ""))
        totals[key] = totals.get(key, 0.0) + float(entry.get("value", 0.0))
    return totals

"""Lock-cheap serving metrics: counters, histograms, callback gauges.

The serving stack needed an observability surface: saturation was
anecdotal ("the bench said 48k qps once") because nothing in the process
could answer *what is this service doing right now*.  This module is the
one metrics registry threaded through :class:`~repro.serving.RoadService`,
the replica pools, and the engine stats — scraped by ``GET /metrics``
(:mod:`repro.serving.http`) in the Prometheus text exposition format and
mirrored into ``RoadService.stats()["metrics"]``.

Design constraints, in order:

* **Lock-cheap on the hot path.**  A counter increment or histogram
  observation is one uncontended ``threading.Lock`` acquire around a few
  arithmetic ops — no string formatting, no allocation beyond the int
  adds.  Rendering (the scrape path) pays the formatting cost instead,
  and samples each metric under the same tiny lock.
* **Stdlib only.**  No ``prometheus_client`` dependency: the exposition
  format is a few lines of text, and the repo's core is stdlib-only by
  contract.
* **Gauges are callbacks.**  Engine-side facts (resident bytes, mask
  cache occupancy, replica-pool liveness) already live in
  ``memory_stats()`` / ``replica_pool_stats()``; a gauge samples them at
  scrape time instead of duplicating state that would drift.  A callback
  that raises is skipped for that scrape (a half-closed engine must not
  turn ``/metrics`` into a 500) and counted in
  ``road_metrics_gauge_errors_total``.

Metric families follow Prometheus conventions: ``*_total`` counters,
``*_ms`` histograms (milliseconds), plain gauges.  Labels are static per
child — ``registry.counter(name, help, labels={...})`` returns one child
of the family per distinct label set — except labelled gauges, whose
callback returns a ``{label value: gauge value}`` mapping sampled per
scrape (per-directory resident bytes, per-kind patch counts).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.serving.result_cache import ResultCache

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "FLUSH_REASONS",
    "LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "ServiceMetrics",
]

#: Histogram bounds for per-query latency in milliseconds: sub-50us
#: coalesce hits through multi-second stalls.  The last bucket is the
#: implicit ``+Inf``.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
)

#: Histogram bounds for admission batch sizes (powers of two up to the
#: largest ``max_batch`` any config uses in practice).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
    32.0,
    64.0,
    128.0,
    256.0,
    512.0,
)

#: Prometheus metric / label name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: A frozen, sorted label set — the identity of one family child.
LabelSet = Tuple[Tuple[str, str], ...]

#: What a gauge callback may return: one value, or a mapping of label
#: values to values (one sample per entry).
GaugeValue = Union[float, int, Mapping[str, float]]

#: Scalar snapshot forms (``MetricsRegistry.snapshot()`` leaves).
Snapshot = Dict[str, object]


class MetricError(ValueError):
    """An invalid metric registration or observation."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> LabelSet:
    if not labels:
        return ()
    for key in labels:
        if not _LABEL_RE.match(key):
            raise MetricError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    """Escape one label value per the exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{_escape(value)}"' for key, value in labels)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    """Exposition-format number: integral values without the ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing count (one family child)."""

    kind = "counter"

    __slots__ = ("labels", "_lock", "_value")

    def __init__(self, labels: LabelSet = ()) -> None:
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the count."""
        if amount < 0:
            raise MetricError(f"counters only go up (inc by {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self, name: str) -> List[Tuple[str, LabelSet, float]]:
        return [(name, self.labels, self.value)]

    def snapshot(self) -> object:
        return self.value


class Histogram:
    """Fixed-bucket latency/size distribution (one family child).

    ``observe`` is the hot-path entry: one lock, one bisect, three adds.
    ``percentile`` interpolates within the winning bucket — coarse, but
    scrape-side only; ``road_bench`` computes exact percentiles from
    its own recorded samples.
    """

    kind = "histogram"

    __slots__ = ("bounds", "labels", "_counts", "_count", "_lock", "_sum")

    def __init__(
        self,
        bounds: Sequence[float] = LATENCY_BUCKETS_MS,
        labels: LabelSet = (),
    ) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise MetricError(
                f"histogram bounds must be distinct and increasing, got {bounds!r}"
            )
        self.bounds = ordered
        self.labels = labels
        self._lock = threading.Lock()
        self._counts = [0] * (len(ordered) + 1)  # last bucket = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, fraction: float) -> float:
        """Estimated quantile (0 < fraction <= 1) from the buckets."""
        if not 0.0 < fraction <= 1.0:
            raise MetricError(f"fraction must be in (0, 1], got {fraction}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = fraction * total
        seen = 0.0
        for index, bucket_count in enumerate(counts):
            if not bucket_count:
                continue
            if seen + bucket_count >= rank:
                lower = 0.0 if index == 0 else self.bounds[index - 1]
                if index >= len(self.bounds):
                    return lower  # +Inf bucket: report its floor
                upper = self.bounds[index]
                return lower + (upper - lower) * ((rank - seen) / bucket_count)
            seen += bucket_count
        return self.bounds[-1]

    def samples(self, name: str) -> List[Tuple[str, LabelSet, float]]:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            accumulated = self._sum
        out: List[Tuple[str, LabelSet, float]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, counts):
            cumulative += bucket_count
            label = (("le", _format_value(bound)),)
            out.append((f"{name}_bucket", self.labels + label, float(cumulative)))
        out.append((f"{name}_bucket", self.labels + (("le", "+Inf"),), float(total)))
        out.append((f"{name}_sum", self.labels, accumulated))
        out.append((f"{name}_count", self.labels, float(total)))
        return out

    def snapshot(self) -> object:
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class Gauge:
    """A callback-sampled value (or labelled value family).

    ``fn`` runs at scrape time.  With ``label`` set, it must return a
    mapping of label values to floats (one sample per entry); without,
    one number.
    """

    kind = "gauge"

    __slots__ = ("fn", "label", "labels")

    def __init__(
        self,
        fn: Callable[[], GaugeValue],
        *,
        label: Optional[str] = None,
        labels: LabelSet = (),
    ) -> None:
        if label is not None and not _LABEL_RE.match(label):
            raise MetricError(f"invalid label name {label!r}")
        self.fn = fn
        self.label = label
        self.labels = labels

    def samples(self, name: str) -> List[Tuple[str, LabelSet, float]]:
        value = self.fn()
        if self.label is None:
            if isinstance(value, Mapping):
                raise MetricError(
                    f"gauge {name} returned a mapping but declared no label"
                )
            return [(name, self.labels, float(value))]
        if not isinstance(value, Mapping):
            raise MetricError(
                f"gauge {name} declared label {self.label!r} but returned "
                f"{type(value).__name__}, not a mapping"
            )
        return [
            (name, self.labels + ((self.label, str(key)),), float(item))
            for key, item in sorted(value.items())
        ]

    def snapshot(self) -> object:
        value = self.fn()
        if isinstance(value, Mapping):
            return {str(key): float(item) for key, item in value.items()}
        return float(value)


#: Any family child.
Metric = Union[Counter, Histogram, Gauge]


class _Family:
    """One metric family: a name, a help line, and its label children."""

    __slots__ = ("help", "kind", "children")

    def __init__(self, kind: str, help_text: str) -> None:
        self.kind = kind
        self.help = help_text
        self.children: Dict[LabelSet, Metric] = {}


class MetricsRegistry:
    """The process-local registry one serving stack scrapes.

    ``counter`` / ``histogram`` / ``gauge`` are get-or-create: asking for
    the same (name, labels) twice returns the same child, so the service
    and the HTTP app can both hold handles without coordination.
    Re-registering a name as a different kind raises — that is always a
    bug, never a feature.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- registration --------------------------------------------------
    def counter(
        self,
        name: str,
        help_text: str = "",
        *,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        """Get or create one counter child."""
        child = self._child(name, help_text, "counter", _freeze_labels(labels))
        assert isinstance(child, Counter)
        return child

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS_MS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        """Get or create one histogram child."""
        child = self._child(
            name,
            help_text,
            "histogram",
            _freeze_labels(labels),
            buckets=tuple(buckets),
        )
        assert isinstance(child, Histogram)
        return child

    def gauge(
        self,
        name: str,
        help_text: str,
        fn: Callable[[], GaugeValue],
        *,
        label: Optional[str] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        """Register (or replace) one callback gauge child."""
        label_set = _freeze_labels(labels)
        with self._lock:
            family = self._family(name, help_text, "gauge")
            gauge = Gauge(fn, label=label, labels=label_set)
            family.children[label_set] = gauge
            return gauge

    def _child(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_set: LabelSet,
        *,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Metric:
        with self._lock:
            family = self._family(name, help_text, kind)
            child = family.children.get(label_set)
            if child is None:
                if kind == "counter":
                    child = Counter(label_set)
                else:
                    child = Histogram(buckets or LATENCY_BUCKETS_MS, label_set)
                family.children[label_set] = child
            return child

    def _family(self, name: str, help_text: str, kind: str) -> _Family:
        family = self._families.get(_check_name(name))
        if family is None:
            family = _Family(kind, help_text)
            self._families[name] = family
        elif family.kind != kind:
            raise MetricError(
                f"metric {name} already registered as a {family.kind}, "
                f"cannot re-register as a {kind}"
            )
        if help_text and not family.help:
            family.help = help_text
        return family

    # -- scrape --------------------------------------------------------
    def render(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        errors = 0
        for name, family in sorted(self._with_families()):
            samples: List[Tuple[str, LabelSet, float]] = []
            for child in list(family.children.values()):
                try:
                    samples.extend(child.samples(name))
                except Exception:  # noqa: BLE001 — a scrape must not 500
                    errors += 1
            if not samples:
                continue
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for sample_name, labels, value in samples:
                rendered = _render_labels(labels)
                lines.append(f"{sample_name}{rendered} {_format_value(value)}")
        if errors:
            lines.append("# TYPE road_metrics_gauge_errors_total counter")
            lines.append(f"road_metrics_gauge_errors_total {errors}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Snapshot:
        """Plain-dict view for ``RoadService.stats()`` and tests.

        Families with one unlabelled child collapse to their value;
        labelled families key children by their rendered label set.
        Gauge callbacks that raise are omitted (same contract as
        :meth:`render`).
        """
        out: Snapshot = {}
        for name, family in sorted(self._with_families()):
            children: Dict[str, object] = {}
            for label_set, child in list(family.children.items()):
                try:
                    value = child.snapshot()
                except Exception:  # noqa: BLE001 — a scrape must not raise
                    continue
                children[_render_labels(label_set) or ""] = value
            if not children:
                continue
            if list(children) == [""]:
                out[name] = children[""]
            else:
                out[name] = children
        return out

    def _with_families(self) -> List[Tuple[str, _Family]]:
        with self._lock:
            return list(self._families.items())


# ---------------------------------------------------------------------------
# The families one RoadService registers
# ---------------------------------------------------------------------------

#: Why a flush ran (``road_flushes_total{reason=...}``): the buckets
#: reached ``max_batch``; a replica was free; a batch completed and
#: released what was held behind it; or the hold hit ``max_delay_ms``.
FLUSH_REASONS = ("full", "idle", "released", "deadline")

#: Service-level counters and their ``/metrics`` help lines.  The dict in
#: ``ServiceMetrics.counts`` stays the cheap in-process view; each name is
#: mirrored into a ``road_service_<name>_total`` counter family.
_SERVICE_COUNTER_HELP: Dict[str, str] = {
    "submitted": "Queries accepted by submit().",
    "flushes": "Admission-bucket flushes drained.",
    "batches": "execute_many calls issued by flushes.",
    "executed": "Queries actually executed (after coalescing).",
    "coalesced": "Queries answered by an in-flight twin.",
}

#: Counter names the result cache mirrors into ``/metrics`` families
#: (``road_cache_<name>_total``).
_CACHE_COUNTER_HELP: Dict[str, str] = {
    "hits": "Queries answered from the result cache.",
    "misses": "Cache lookups that fell through to execution.",
    "evictions": "Entries dropped by the LRU budget.",
    "invalidations": "Entries evicted by maintenance reports.",
}


def _stat_number(stats: Mapping[str, object], key: str) -> float:
    """One numeric field of a stats mapping, 0.0 when absent/non-numeric."""
    value = stats.get(key)
    return float(value) if isinstance(value, (int, float)) else 0.0


class ServiceMetrics:
    """Every metric family one :class:`~repro.serving.RoadService` owns.

    The request path observes through the handles and :meth:`count`; the
    gauges sample at scrape time the replica set's ``pool_stats``, the
    serving snapshot's ``memory_stats()`` and :attr:`cache`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        pool_stats: Callable[[], Mapping[str, object]],
        snapshot_memory: Callable[[], Mapping[str, object]],
    ) -> None:
        self.registry = registry
        self._pool_stats = pool_stats
        self._snapshot_memory = snapshot_memory
        #: The result cache the cache gauges read (None: cache off).
        self.cache: Optional["ResultCache"] = None
        #: The gauges sampling one memory_stats() pass, and that pass.
        self._memory_round: Optional[Tuple[Set[str], Mapping[str, object]]] = None
        self.counts = dict.fromkeys(_SERVICE_COUNTER_HELP, 0)
        self._counters = {
            name: registry.counter(f"road_service_{name}_total", text)
            for name, text in _SERVICE_COUNTER_HELP.items()
        }
        # Per-kind admission counters materialise lazily: query classes
        # appear as their first instance is submitted.
        self._kind_counters: Dict[str, Counter] = {}
        self.batch_sizes = registry.histogram(
            "road_admission_batch_size",
            "Unique queries per execute_many admission batch.",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self.latency = registry.histogram(
            "road_query_latency_ms",
            "Per-query submit() latency (admission to delivery) in ms.",
        )
        self.admit_wait, self.cache_stage = (
            registry.histogram(
                "road_stage_ms",
                "Time spent per request-path stage in ms.",
                labels={"stage": stage},
            )
            for stage in ("admit_wait", "cache")
        )
        self.flush_reasons = {
            reason: registry.counter(
                "road_flushes_total",
                "Admission flushes by what triggered them.",
                labels={"reason": reason},
            )
            for reason in FLUSH_REASONS
        }
        registry.gauge(
            "road_replica_pool",
            "Replica-pool state (ProcessReplicaPool.stats() keys, both "
            "modes).",
            self._pool_gauge,
            label="field",
        )
        registry.gauge(
            "road_directory_resident_bytes",
            "Resident bytes per compiled directory of the serving "
            "snapshot.",
            self._directory_bytes_gauge,
            label="directory",
        )
        registry.gauge(
            "road_mask_cache",
            "Mask-cache occupancy/eviction state of the serving snapshot, "
            "and the ChoosePath results cached beside the masks.",
            self._mask_cache_gauge,
            label="field",
        )
        registry.gauge(
            "road_snapshot_resident_bytes",
            "Total resident bytes of the serving snapshot.",
            self._snapshot_bytes_gauge,
        )
        #: The ``road_cache_<name>_total`` counters a ResultCache mirrors.
        self.cache_counters = {
            name: registry.counter(f"road_cache_{name}_total", text)
            for name, text in _CACHE_COUNTER_HELP.items()
        }
        self.cache_invalidate = registry.histogram(
            "road_cache_invalidate_ms",
            "Result-cache invalidation time per maintenance report in ms.",
        )
        registry.gauge(
            "road_cache_hit_ratio",
            "Result-cache hits / lookups (0 while cold or disabled).",
            self._cache_hit_ratio_gauge,
        )
        registry.gauge(
            "road_cache_entries",
            "Entries resident in the result cache.",
            self._cache_entries_gauge,
        )

    # -- counters ------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Bump one service counter in both surfaces (dict + /metrics)."""
        self.counts[name] += amount
        self._counters[name].inc(amount)

    def count_kind(self, kind: str) -> None:
        """Bump the per-query-class admission counter."""
        counter = self._kind_counters.get(kind)
        if counter is None:
            counter = self.registry.counter(
                "road_queries_by_kind_total",
                "Queries admitted by submit(), per query class.",
                labels={"kind": kind},
            )
            self._kind_counters[kind] = counter
        counter.inc()

    def count_patch(self, kind: str) -> None:
        """Bump ``road_patches_total`` for one maintenance report kind."""
        self.registry.counter(
            "road_patches_total",
            "Maintenance patches processed, by report kind.",
            labels={"kind": kind},
        ).inc()

    # -- gauges --------------------------------------------------------
    def _cache_hit_ratio_gauge(self) -> float:
        cache = self.cache
        if cache is None:
            return 0.0
        hits, misses = cache.hits, cache.misses
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def _cache_entries_gauge(self) -> float:
        cache = self.cache
        return 0.0 if cache is None else float(len(cache))

    def _pool_gauge(self) -> Dict[str, float]:
        return {
            key: float(value)
            for key, value in self._pool_stats().items()
            if isinstance(value, (int, float))
        }

    def _memory_stats(self, gauge: str) -> Mapping[str, object]:
        """The serving snapshot's ``memory_stats()``, one pass per scrape.

        On the ``list`` backend the pass walks every boxed element (tens
        of ms on full CA), and three gauges read it.  Each scrape samples
        each gauge once, so the first gauge of a round computes it and
        the others reuse it; a gauge asking again opens the next round.
        """
        if self._memory_round is None or gauge in self._memory_round[0]:
            self._memory_round = (set(), self._snapshot_memory())
        sampled, stats = self._memory_round
        sampled.add(gauge)
        return stats

    def _directory_bytes_gauge(self) -> Dict[str, float]:
        directories = self._memory_stats("directories").get("directories")
        if not isinstance(directories, Mapping):
            return {}
        out: Dict[str, float] = {}
        for name, entry in directories.items():
            if not isinstance(entry, Mapping):
                continue
            out[str(name)] = sum(
                _stat_number(entry, key)
                for key in (
                    "object_array_bytes",
                    "object_ref_bytes",
                    "mask_cache_bytes",
                    "path_table_bytes",
                )
            )
        return out

    def _mask_cache_gauge(self) -> Dict[str, float]:
        stats = self._memory_stats("mask_cache")
        if not stats:
            return {}
        return {
            key: _stat_number(stats, key)
            for key in (
                "mask_cache_bytes",
                "mask_cache_entries",
                "mask_budget",
                "mask_evictions",
                "path_shared_entries",
                "path_shared_bytes",
                "path_table_entries",
                "path_table_bytes",
            )
        }

    def _snapshot_bytes_gauge(self) -> float:
        return _stat_number(self._memory_stats("snapshot"), "total_bytes")

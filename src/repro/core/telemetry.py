"""Unified SLS telemetry: spans, counters, sample series.

Every layer of the single level store — orchestrator, shadow engine,
serializers, object store, journals, the Aurora FS, the NVMe model —
reports into one process-wide :class:`TelemetryRegistry`.  Metrics are
*sim-clock-native*: spans and series record integer simulated
nanoseconds and recording never advances the clock, so instrumented
and uninstrumented runs are timing-identical.

Three primitives:

* :class:`Counter` — a monotonic (or settable) integer, keyed by name
  plus a label set (``group=3``, ``device="nvd0"``, ...).
* :class:`Series` — the one statistics primitive: exact all-time
  count/total/min/max plus a bounded window of raw samples, so every
  percentile reported anywhere (``sls stat/slo/top/cluster/metrics``,
  SLO budgets, the flight record) is the same nearest-rank over samples
  that occurred.  ``registry.histogram(name, **labels)`` names one.
* spans — ``registry.record_span(name, start, end, **labels)`` keeps a
  bounded trace ring and feeds a series of the same name, which is
  how per-stage checkpoint timings become queryable after the fact
  (``sls stat``).  Evictions from the full ring are counted in
  ``sls.telemetry.spans_dropped``.

Spans are *causal*: every span carries ``trace_id``/``span_id``/
``parent_id`` slots.  When an operation trace is active (see
:mod:`.tracing`), the registry attributes each recorded span to it —
nested ``registry.span(...)`` context managers produce a proper parent
tree, and post-hoc ``record_span`` calls parent to the innermost open
span.  The registry itself stays tracing-agnostic: the active trace is
any object with the small ``alloc/push/pop/attach`` protocol, supplied
by :func:`repro.core.tracing.trace`.

``set_enabled(False)`` turns span/trace recording off entirely (the
ring, series fed by spans, traces and the event log all go quiet;
counters stay live — subsystems use them for bookkeeping); sim
timing is identical either way — asserted by test.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Tuple, TypeVar, Union)

from ..serde import Encoded

#: Canonical label encoding: sorted (key, value) tuples.
LabelKey = Tuple[Tuple[str, object], ...]


_T = TypeVar("_T")


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted(labels.items()))


def ring_tail(ring: Deque[_T], count: int) -> List[_T]:
    """The newest ``count`` entries of a ring, oldest first, without
    copying the rest of it."""
    tail = list(itertools.islice(reversed(ring), count))
    tail.reverse()
    return tail


class Ring(Deque[_T]):
    """The one bounded ring (spans, events, finished traces): a
    ``deque(maxlen=capacity)`` whose :meth:`push` says whether the
    oldest entry was evicted, so each owner keeps one drop counter."""

    def __init__(self, capacity: int) -> None:
        super().__init__(maxlen=capacity)

    def push(self, item: _T) -> bool:
        evicted = len(self) == self.maxlen
        self.append(item)
        return evicted


class Counter:
    """A named integer metric; supports add and (for maxima) set."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, object]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def add(self, delta: int = 1) -> int:
        self.value += delta
        return self.value

    def set(self, value: int) -> int:
        self.value = value
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}{self.labels or ''}={self.value})"


def nearest_rank(ordered: List[int], p: float) -> int:
    """Nearest-rank percentile of already-sorted samples (0 when empty)."""
    if not ordered:
        return 0
    rank = max(1, int(len(ordered) * p / 100.0 + 0.9999))
    return ordered[min(rank, len(ordered)) - 1]


#: Raw samples a :class:`Series` keeps for percentiles (oldest dropped
#: beyond this; count/total/min/max stay exact over all of them).
SAMPLE_CAPACITY = 65536


class Series:
    """Exact all-time count/total/min/max plus a bounded window of raw
    integer samples (nanoseconds, bytes) that percentiles are read
    from.  Samples are only ever appended, so ``count`` identifies the
    series' state — readers may cache what they derive under it."""

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "samples")

    def __init__(self, name: str = "",
                 labels: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.labels: Dict[str, object] = labels or {}
        self.count = 0
        self.total = 0
        self.min = 0
        self.max = 0
        self.samples: Deque[int] = deque(maxlen=SAMPLE_CAPACITY)

    def observe(self, value: int) -> None:
        if not self.count:
            self.min = self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value
        self.count += 1
        self.total += value
        self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def tail(self, count: int) -> List[int]:
        """The newest ``count`` samples, oldest first."""
        return ring_tail(self.samples, count)

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile of the window (0 when empty): always
        a sample that occurred, so ``min <= percentile(p) <= max``."""
        return nearest_rank(sorted(self.samples), p)

    def summary(self) -> Dict[str, int]:
        ordered = sorted(self.samples)
        return {"count": self.count, "max": self.max,
                "p50": nearest_rank(ordered, 50),
                "p95": nearest_rank(ordered, 95),
                "p99": nearest_rank(ordered, 99)}

    def __repr__(self) -> str:
        return (f"Series({self.name}{self.labels or ''}: n={self.count}, "
                f"mean={self.mean:.0f}, max={self.max})")


class SpanRecord:
    """One completed span on the simulated clock.

    ``trace_id``/``span_id``/``parent_id`` are None for spans recorded
    outside any operation trace; inside one they form the causal tree
    the Chrome exporter and the critical-path analyzer consume.

    Immutable once recorded: the ids are assigned before the span
    enters the ring and nothing (label values included) changes
    afterwards, so the flight recorder encodes a span's snapshot row
    once and keeps the bytes in ``encoded`` while the ring keeps the
    span.
    """

    __slots__ = ("name", "labels", "start_ns", "end_ns",
                 "trace_id", "span_id", "parent_id", "encoded")

    def __init__(self, name: str, labels: Dict[str, object],
                 start_ns: int, end_ns: int) -> None:
        self.name = name
        self.labels = labels
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.trace_id: Optional[int] = None
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        #: The flight recorder's encoded row (``serde.Encoded``).
        self.encoded: Optional[Encoded] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:
        return (f"Span({self.name}{self.labels or ''} "
                f"[{self.start_ns}, {self.end_ns}))")


class _SpanContext:
    """Context manager produced by :meth:`TelemetryRegistry.span`.

    While the with-block is open the span sits on the active trace's
    stack, so spans recorded inside become its children.
    """

    __slots__ = ("registry", "clock", "name", "labels", "start_ns",
                 "span_id")

    def __init__(self, registry: "TelemetryRegistry", clock: Any,
                 name: str, labels: Dict[str, object]) -> None:
        self.registry = registry
        self.clock = clock
        self.name = name
        self.labels = labels
        self.start_ns = 0
        self.span_id: Optional[int] = None

    def __enter__(self) -> "_SpanContext":
        self.start_ns = self.clock.now()
        trace = self.registry.active_trace
        if trace is not None:
            self.span_id = trace.push()
        return self

    def __exit__(self, *exc_info: object) -> None:
        trace = self.registry.active_trace
        if trace is not None and self.span_id is not None:
            trace.pop(self.span_id)
        self.registry.record_span(self.name, self.start_ns,
                                  self.clock.now(),
                                  span_id=self.span_id, **self.labels)


_M = TypeVar("_M", Counter, Series)


def _matching(metrics: Iterable[_M], prefix: Union[str, Tuple[str, ...]],
              labels: Dict[str, object]) -> Iterator[_M]:
    wanted = labels.items()
    for metric in metrics:
        if (metric.name.startswith(prefix)
                and all(metric.labels.get(k) == v for k, v in wanted)):
            yield metric


class TelemetryRegistry:
    """Process-wide home of all counters, series and spans."""

    #: Bounded span trace: enough for a benchmark run's recent history
    #: without growing across thousands of simulated checkpoints.
    SPAN_CAPACITY = 8192

    def __init__(self, span_capacity: int = SPAN_CAPACITY) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        #: The same counters by name, so :meth:`value` reads only the
        #: label sets of the name it sums.
        self._counters_by_name: Dict[str, List[Counter]] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Series] = {}
        self.spans: Ring[SpanRecord] = Ring(span_capacity)
        #: Span/trace/event recording switch (counters stay live).
        self.enabled = True
        #: The operation trace spans are currently attributed to (an
        #: object with the alloc/push/pop/attach protocol), or None.
        self.active_trace: Optional[Any] = None

    # -- metric access ------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = Counter(name, labels)
            self._counters[key] = counter
            self._counters_by_name.setdefault(name, []).append(counter)
        return counter

    def histogram(self, name: str, **labels: object) -> Series:
        key = (name, _label_key(labels))
        series = self._histograms.get(key)
        if series is None:
            series = Series(name, labels)
            self._histograms[key] = series
        return series

    # -- spans --------------------------------------------------------------------

    def record_span(self, name: str, start_ns: int, end_ns: int,
                    span_id: Optional[int] = None,
                    **labels: object) -> SpanRecord:
        """Record a completed span and feed its latency series.

        ``span_id`` is supplied by :class:`_SpanContext` when the span
        was pushed on an operation trace at open time; post-hoc calls
        leave it None and the active trace (if any) allocates one.
        """
        span = SpanRecord(name, labels, start_ns, end_ns)
        if not self.enabled:
            return span
        trace = self.active_trace
        if trace is not None:
            trace.attach(span, span_id=span_id)
        if self.spans.push(span):
            self.counter("sls.telemetry.spans_dropped").add(1)
        self.histogram(name, **labels).observe(span.duration_ns)
        return span

    def span(self, clock: Any, name: str,
             **labels: object) -> _SpanContext:
        """``with registry.span(clock, "restore", group=3): ...``"""
        return _SpanContext(self, clock, name, labels)

    # -- queries ------------------------------------------------------------------

    def counters_matching(self, prefix: Union[str, Tuple[str, ...]] = "",
                          **labels: object) -> Iterator[Counter]:
        """Counters whose name starts with ``prefix`` (or any of a
        tuple of prefixes) and whose label set contains every given
        label (extra labels are ignored)."""
        return _matching(self._counters.values(), prefix, labels)

    def histograms_matching(self, prefix: str = "",
                            **labels: object) -> Iterator[Series]:
        """Named series filtered like :meth:`counters_matching`."""
        return _matching(self._histograms.values(), prefix, labels)

    def value(self, name: str, **labels: object) -> int:
        """Sum of every counter with this exact name and matching
        labels (aggregates across instance labels)."""
        wanted = labels.items()
        return sum(c.value for c in self._counters_by_name.get(name, ())
                   if all(c.labels.get(k) == v for k, v in wanted))

    def stage_rows(self, group_id: Optional[int] = None
                   ) -> List[Dict[str, Any]]:
        """Per-stage latency summary rows (the ``sls stat`` payload)."""
        labels: Dict[str, object] = ({} if group_id is None
                                     else {"group": group_id})
        return [{
            "stage": series.name[len("ckpt."):],
            "group": series.labels.get("group"),
            "count": series.count,
            "total_ns": series.total,
            "mean_ns": series.mean,
            "max_ns": series.max,
            "p50_ns": series.percentile(50),
            "p95_ns": series.percentile(95),
            "p99_ns": series.percentile(99),
        } for series in self.histograms_matching("ckpt.", **labels)]

    def reset(self) -> None:
        """Drop every metric (test isolation between experiments)."""
        self._counters.clear()
        self._counters_by_name.clear()
        self._histograms.clear()
        self.spans.clear()
        self.enabled = True
        self.active_trace = None


#: The process-wide registry.  Components grab it at construction; the
#: CLI and benchmarks read it after a run.
_REGISTRY = TelemetryRegistry()

#: Monotonic instance ids keep same-named stats of different component
#: instances (two machines' stores, a restored group's new incarnation)
#: on separate counters, matching the old per-object dict behaviour.
_INSTANCES = itertools.count(1)


#: Callbacks run by :func:`reset` so sibling singletons (the tracer,
#: the event log) clear in lock-step with the registry.  Registered at
#: import time by :mod:`.tracing` and :mod:`.events` — telemetry never
#: imports them.
_RESET_HOOKS: List[Callable[[], None]] = []


def on_reset(hook: Callable[[], None]) -> None:
    """Register a callable to run whenever :func:`reset` is called."""
    _RESET_HOOKS.append(hook)


def registry() -> TelemetryRegistry:
    """The process-wide telemetry registry."""
    return _REGISTRY


def reset() -> None:
    """Clear the process-wide registry (between tests/experiments).

    Instance labels restart too, so two identical experiments bracketed
    by ``reset()`` produce identical metrics and trace trees — the
    determinism the trace tests assert.
    """
    global _INSTANCES
    _REGISTRY.reset()
    _INSTANCES = itertools.count(1)
    for hook in _RESET_HOOKS:
        hook()


def set_enabled(flag: bool) -> None:
    """Turn span/trace/event recording on or off process-wide."""
    _REGISTRY.enabled = flag


def next_instance() -> int:
    """A fresh instance label value."""
    return next(_INSTANCES)


class StatsView:
    """Dict-shaped compatibility view over registry counters.

    ``view["checkpoints"] += 1`` reads and writes the backing counter
    named ``<prefix>.checkpoints`` with this view's labels, so legacy
    ``component.stats[...]`` readers keep working while every number
    is also queryable (and aggregatable) through the registry.
    """

    __slots__ = ("_prefix", "_labels", "_keys")

    def __init__(self, prefix: str, labels: Optional[Dict[str, object]] = None,
                 keys: Iterable[str] = ()) -> None:
        self._prefix = prefix
        self._labels = dict(labels or {})
        self._labels.setdefault("inst", next_instance())
        self._keys: List[str] = []
        for key in keys:
            self._counter(key)

    def _counter(self, key: str) -> Counter:
        if key not in self._keys:
            self._keys.append(key)
        return _REGISTRY.counter(f"{self._prefix}.{key}", **self._labels)

    def __getitem__(self, key: str) -> int:
        return self._counter(key).value

    def __setitem__(self, key: str, value: int) -> None:
        self._counter(key).set(value)

    def get(self, key: str, default: int = 0) -> int:
        if key not in self._keys:
            return default
        return self[key]

    def keys(self) -> List[str]:
        return list(self._keys)

    def items(self) -> List[Tuple[str, int]]:
        return [(key, self[key]) for key in self._keys]

    def values(self) -> List[int]:
        return [self[key] for key in self._keys]

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def as_dict(self) -> Dict[str, int]:
        return dict(self.items())

    def __repr__(self) -> str:
        return f"StatsView({self._prefix}, {self.as_dict()})"

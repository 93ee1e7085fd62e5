"""Retry/backoff policy and degraded-mode health state for the
self-healing storage path.

Aurora promises persistence as an always-on OS service: the 100 Hz
checkpoint loop should survive a device hiccup the way a real kernel
survives a SCSI retry, not die on the first ``EIO``.  This module is
the policy half of that promise:

* :class:`RetryPolicy` retries *retryable* failures
  (:class:`~repro.errors.TransientDeviceError` from the simulated
  NVMe array, :class:`~repro.errors.LinkDown` from the replication
  link) with bounded attempts, exponential backoff on the simulated
  clock, and deterministic jitter from a seeded RNG.  When attempts or
  the per-operation deadline run out it raises
  :class:`~repro.errors.RetriesExhausted` carrying the last error.
  Every retry and every exhaustion lands in the structured event log
  and the metric registry; backoff waits are recorded as
  ``resilience.backoff`` spans so traces show where the time went.
* :class:`GroupHealth` is the per-consistency-group degraded-mode
  state machine the orchestrator drives: ``ok`` → ``degraded`` on
  ENOSPC (memory-only checkpoints + emergency GC) or on
  :data:`DEVICE_FAILURE_THRESHOLD` consecutive exhausted checkpoints
  (widened checkpoint interval), and back to ``ok`` when a probe
  checkpoint succeeds.  Transition timestamps feed the ``sls slo``
  degraded-time budget.

Determinism: backoff delays are a pure function of the policy seed
and the attempt sequence, and they advance the *simulated* clock, so
a run with retries is exactly as reproducible as one without.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Tuple, Type, TypeVar

from ..errors import LinkDown, RetriesExhausted, TransientDeviceError
from ..units import MSEC, USEC
from . import events as sls_events
from . import telemetry

T = TypeVar("T")

#: Failures a retry may cure; everything else propagates immediately.
RETRYABLE: Tuple[Type[Exception], ...] = (TransientDeviceError, LinkDown)

#: Default policy: five attempts, 50 us first backoff doubling to a
#: 2 ms cap, all inside a 20 ms per-operation deadline (two checkpoint
#: periods — a storage op slower than that has missed its slot anyway).
DEFAULT_MAX_ATTEMPTS = 5
BASE_BACKOFF_NS = 50 * USEC
MAX_BACKOFF_NS = 2 * MSEC
DEFAULT_DEADLINE_NS = 20 * MSEC

#: Health states and degradation reasons.
HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
REASON_ENOSPC = "enospc"
REASON_DEVICE = "device"
#: A fenced ex-primary draining after a newer membership epoch won.
REASON_STALE_PRIMARY = "stale_primary"

#: Consecutive exhausted checkpoints before the group degrades.
DEVICE_FAILURE_THRESHOLD = 3
#: Checkpoint-interval multiplier while degraded for device errors.
WIDEN_FACTOR = 4
#: While degraded for ENOSPC, try a real (disk) checkpoint every Nth
#: tick as the recovery probe; the rest stay memory-only.  This is the
#: *default* cadence: each consistency group carries its own
#: ``probe_every`` (``sls attach --probe-every``, shown by
#: ``sls fleet``) so a tenant on a slow-to-recover store can probe
#: less aggressively than its neighbours.
DEFAULT_PROBE_EVERY = 5


class _ClockLike:
    """Structural stand-in for :class:`repro.hw.clock.SimClock`."""

    def now(self) -> int:  # pragma: no cover - protocol only
        raise NotImplementedError

    def advance(self, delta_ns: int) -> int:  # pragma: no cover
        raise NotImplementedError


class RetryPolicy:
    """Bounded, deterministic retry with sim-clock backoff."""

    base_backoff_ns = BASE_BACKOFF_NS
    max_backoff_ns = MAX_BACKOFF_NS

    def __init__(self, clock: _ClockLike, *,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 deadline_ns: int = DEFAULT_DEADLINE_NS,
                 seed: int = 0, op: str = "io"):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.clock = clock
        self.max_attempts = max_attempts
        self.deadline_ns = deadline_ns
        self.op = op
        self._rng = random.Random(seed)

    def backoff_ns(self, attempt: int) -> int:
        """Delay before retry number ``attempt`` (1-based): exponential
        with full deterministic jitter, capped at ``max_backoff_ns``."""
        base = min(self.max_backoff_ns,
                   self.base_backoff_ns << (attempt - 1))
        return base + self._rng.randrange(base // 2 + 1)

    def run(self, fn: Callable[[], T], *, op: Optional[str] = None) -> T:
        """Call ``fn`` until it succeeds, a non-retryable error
        propagates, or attempts/deadline run out
        (:class:`~repro.errors.RetriesExhausted`)."""
        op = op or self.op
        started = self.clock.now()
        attempt = 0
        while True:
            try:
                return fn()
            except RETRYABLE as exc:
                attempt += 1
                now = self.clock.now()
                registry = telemetry.registry()
                out_of_attempts = attempt >= self.max_attempts
                out_of_time = now - started >= self.deadline_ns
                if out_of_attempts or out_of_time:
                    sls_events.emit(now, sls_events.RETRY_EXHAUSTED,
                                    op=op, attempts=attempt,
                                    error=type(exc).__name__)
                    registry.counter("sls.resilience.exhausted",
                                     op=op).add(1)
                    why = ("deadline" if out_of_time else
                           f"{self.max_attempts} attempts")
                    raise RetriesExhausted(
                        f"{op}: gave up after {why}: {exc}",
                        last_error=exc) from exc
                delay = self.backoff_ns(attempt)
                # Never back off past the deadline: the final attempt
                # happens while the operation still has a chance.
                delay = min(delay, started + self.deadline_ns - now)
                sls_events.emit(now, sls_events.RETRY, op=op,
                                attempt=attempt, backoff_ns=delay,
                                error=type(exc).__name__)
                registry.counter("sls.resilience.retries", op=op).add(1)
                if delay > 0:
                    self.clock.advance(delay)
                    registry.record_span("resilience.backoff", now,
                                         now + delay, op=op,
                                         attempt=attempt)


#: Consecutive failed ships before a cluster peer is considered
#: degraded (the pump stops hammering it every round).
PEER_FAILURE_THRESHOLD = 2
#: While a peer is degraded, probe it every Nth pump round.
PEER_PROBE_EVERY = 4


class PeerHealth:
    """Per-cluster-node health as seen by the replication pump.

    Mirrors :class:`GroupHealth` but for a *remote* failure domain: a
    node whose ships keep exhausting their retries degrades, and a
    degraded node is only probed every :data:`PEER_PROBE_EVERY` pump
    rounds instead of dragging every round through a full retry
    budget.  Any successful ship restores it to ``ok``.
    """

    __slots__ = ("state", "consecutive_failures", "rounds",
                 "degraded_since")

    def __init__(self) -> None:
        self.state = HEALTH_OK
        self.consecutive_failures = 0
        #: Pump rounds seen while degraded (drives the probe cadence).
        self.rounds = 0
        self.degraded_since: Optional[int] = None

    @property
    def degraded(self) -> bool:
        return self.state == HEALTH_DEGRADED

    def record_failure(self, now_ns: int) -> bool:
        """One exhausted ship; returns True when this tipped the peer
        into degraded."""
        self.consecutive_failures += 1
        if (not self.degraded
                and self.consecutive_failures >= PEER_FAILURE_THRESHOLD):
            self.state = HEALTH_DEGRADED
            self.degraded_since = now_ns
            self.rounds = 0
            return True
        return False

    def record_success(self) -> bool:
        """One good ship; returns True when the peer just recovered."""
        recovered = self.degraded
        self.state = HEALTH_OK
        self.consecutive_failures = 0
        self.rounds = 0
        self.degraded_since = None
        return recovered

    def should_attempt(self) -> bool:
        """Whether the pump should ship to this peer this round."""
        if not self.degraded:
            return True
        self.rounds += 1
        return self.rounds % PEER_PROBE_EVERY == 0

    def __repr__(self) -> str:
        if not self.degraded:
            return "PeerHealth(ok)"
        return (f"PeerHealth(degraded, "
                f"{self.consecutive_failures} failures)")


class GroupHealth:
    """Degraded-mode state for one consistency group.

    The orchestrator owns the transitions; this object just keeps
    them honest (no double-enter, spell accounting for the SLO feed).
    """

    __slots__ = ("state", "reason", "entered_ns", "ticks",
                 "consecutive_failures")

    def __init__(self) -> None:
        self.state = HEALTH_OK
        self.reason: Optional[str] = None
        #: Sim-instant the current degraded spell began.
        self.entered_ns: Optional[int] = None
        #: Degraded ticks seen this spell (drives probe cadence).
        self.ticks = 0
        #: Exhausted periodic checkpoints since the last success.
        self.consecutive_failures = 0

    @property
    def degraded(self) -> bool:
        return self.state == HEALTH_DEGRADED

    def enter(self, reason: str, now_ns: int) -> None:
        if self.degraded:
            self.reason = reason
            return
        self.state = HEALTH_DEGRADED
        self.reason = reason
        self.entered_ns = now_ns
        self.ticks = 0

    def exit(self, now_ns: int) -> int:
        """Leave degraded mode; returns the spell length in ns."""
        spell = now_ns - (self.entered_ns or now_ns)
        self.state = HEALTH_OK
        self.reason = None
        self.entered_ns = None
        self.ticks = 0
        self.consecutive_failures = 0
        return spell

    def __repr__(self) -> str:
        if not self.degraded:
            return "GroupHealth(ok)"
        return (f"GroupHealth(degraded/{self.reason}, "
                f"{self.ticks} ticks)")

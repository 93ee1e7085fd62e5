"""Continuous replication to a standby machine (Table 2: ``sls send``
"can ... continually feed incremental checkpoints to a remote host,
... or provide high availability").

A :class:`ReplicationLink` subscribes to a consistency group's commits:
after each checkpoint completes locally, the delta since the last
shipped checkpoint is serialized into a migration stream, charged
across the NIC, and applied to the standby's object store.  When the
primary dies, :meth:`failover` restores the newest replicated
checkpoint on the standby — bounded loss of at most one checkpoint
period plus replication lag.

Link flaps are survivable: each ship attempt consults the primary's
fault plan (:meth:`~repro.core.faults.FaultPlan.on_link`) and retries
:class:`~repro.errors.LinkDown` with the standard backoff policy.  An
outage that outlasts the retries marks the link *down* (``sls
events``: ``replication.link_down``) and shipping quietly resumes on
the next pump; :meth:`failover` during an outage is only allowed once
the outage has exceeded the failover deadline — flapping links must
not trigger split-brain-style premature failovers.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import MachineCrashed, RetriesExhausted, SLSError
from ..units import MSEC
from . import events, faults, migration, telemetry, tracing
from .resilience import RetryPolicy

#: An outage must last this long before failover is permitted.
DEFAULT_FAILOVER_DEADLINE_NS = 100 * MSEC


class ReplicationLink:
    """One group continuously replicated from a primary to a standby."""

    def __init__(self, src_sls, dst_sls, group,
                 failover_deadline_ns: int = DEFAULT_FAILOVER_DEADLINE_NS):
        self.src_sls = src_sls
        self.dst_sls = dst_sls
        self.group = group
        self.last_shipped: Optional[int] = None
        self.stats = {"streams": 0, "bytes": 0, "full_syncs": 0,
                      "outages": 0}
        self._installed = False
        self.failover_deadline_ns = failover_deadline_ns
        #: Sim-instant the current outage began (None = link healthy).
        self.down_since: Optional[int] = None
        #: This link's far endpoint id in directional partition cuts
        #: (the quorum cluster overrides it with the node id; the
        #: plain standby keeps 0).
        self.peer_id = 0
        self.retry = RetryPolicy(src_sls.machine.clock,
                                 seed=0x11A6 ^ group.group_id,
                                 op="replication.ship")

    # -- shipping -----------------------------------------------------------------

    def _clock(self):
        return self.src_sls.machine.clock

    def _ship_once(self, newest: int) -> None:
        """One connect + send attempt (the retry policy's unit)."""
        plan = getattr(self.src_sls.machine, "fault_plan", None)
        if plan is not None:
            plan.on_link()
            # The ship direction can be partitioned independently of
            # the reverse path: delivery, not just shipping, fails
            # per-direction (and may be skewed late).
            delay = plan.on_deliver(faults.PRIMARY, self.peer_id)
            if delay:
                self._clock().advance(delay)
        # Attribute the standby leg to this group's checkpoint trace —
        # the propagation rule the quorum cluster's legs use.
        ctx = tracing.capture_for_group(self.group.group_id)
        with tracing.use(ctx.resolve() if ctx is not None else None):
            with telemetry.registry().span(self._clock(), "repl.ship",
                                           group=self.group.group_id,
                                           ckpt=newest):
                if self.last_shipped is None:
                    stream = migration.send_checkpoint(
                        self.src_sls, self.group.group_id, ckpt_id=newest)
                    self.stats["full_syncs"] += 1
                else:
                    stream = migration.send_checkpoint(
                        self.src_sls, self.group.group_id, ckpt_id=newest,
                        since=self.last_shipped)
                migration.recv_checkpoint(self.dst_sls, stream)
        self.stats["streams"] += 1
        self.stats["bytes"] += len(stream)

    def ship(self) -> Optional[int]:
        """Ship everything committed since the last shipment.

        Returns the checkpoint id now current on the standby, or None
        when there is nothing new — or when the link is down and the
        retries did not outlast the flap (the next pump tries again).
        """
        newest = self.group.last_complete_id
        if newest is None or newest == self.last_shipped:
            return None
        if not self._attempt(lambda: self._ship_once(newest)):
            return None
        self.last_shipped = newest
        return newest

    def _attempt(self, ship_once: Callable[[], None],
                 **where: object) -> bool:
        """Run one shipment under the retry policy and keep the outage
        book: False when the retries did not outlast the flap (the
        first such failure opens the outage and says so — ``where``
        joins the event's fields), True once it went through (which
        closes any open outage)."""
        now = self._clock().now()
        try:
            self.retry.run(ship_once)
        except RetriesExhausted as exc:
            if self.down_since is None:
                self.down_since = now
                self.stats["outages"] += 1
                events.emit(self._clock().now(), events.LINK_DOWN,
                            group=self.group.group_id, **where,
                            error=f"{type(exc).__name__}: {exc}")
                telemetry.registry().counter(
                    "sls.replication.outages",
                    group=self.group.group_id).add(1)
            return False
        self._mark_link_up()
        return True

    def _mark_link_up(self) -> None:
        """A ship attempt went through: close any recorded outage.

        Every healthy path must come through here — ``down_since``
        carries the outage *start*, and a stale start left behind
        after the link healed would let :meth:`failover` misread a
        long-dead outage as a long-running one.
        """
        if self.down_since is None:
            return
        events.emit(self._clock().now(), events.LINK_UP,
                    group=self.group.group_id,
                    outage_ns=self._clock().now() - self.down_since)
        self.down_since = None

    def install(self) -> None:
        """Hook the group's periodic commits: every completed
        checkpoint is shipped automatically.

        Implemented by chaining the orchestrator's periodic timer —
        the link ships on the same event-loop cadence as the group's
        checkpoints, immediately after each fires.
        """
        if self._installed:
            return
        self._installed = True
        loop = self.src_sls.machine.loop

        def pump():
            if not self._installed or not self.group.attached:
                return
            # Shipping only ever reads *complete* checkpoints, so an
            # in-flight flush is no obstacle.
            self.ship()
            self._timer = loop.call_after(self.group.period_ns, pump)

        # Offset by half a period so shipments interleave with the
        # group's checkpoint timer instead of racing it.
        self._timer = loop.call_after(self.group.period_ns +
                                      self.group.period_ns // 2, pump)

    def stop(self) -> None:
        """Cease shipping (standby keeps what it has)."""
        self._installed = False
        timer = getattr(self, "_timer", None)
        if timer is not None:
            timer.cancel()

    # -- failover -------------------------------------------------------------------

    def outage_ns(self) -> int:
        """How long the current outage has lasted (0 when healthy)."""
        if self.down_since is None:
            return 0
        return self._clock().now() - self.down_since

    def failover(self, lazy: bool = False, force: bool = False):
        """The primary is gone: resume the application on the standby
        from the newest replicated checkpoint.

        During a link outage, failover is refused until the outage has
        exceeded the failover deadline — a flapping link should
        reconnect with backoff, not promote the standby.  ``force``
        overrides (operator knows the primary is really dead).
        """
        if self.last_shipped is None:
            raise SLSError("nothing was ever replicated")
        if self.down_since is not None and not force:
            # The recorded outage start may be stale: an outage noted
            # when retries exhausted is never re-examined unless a
            # later ship happens to succeed, so a link that healed
            # (and possibly re-flapped) in between would inherit the
            # old start and look deadline-old.  Probe before trusting
            # it — one last ship attempt; if anything gets through the
            # link is alive and failover would lose the unshipped
            # tail.
            try:
                self.ship()
            except MachineCrashed:
                pass  # primary really is gone; the outage stands
            if self.down_since is None:
                raise SLSError(
                    "link probe succeeded: the link is up (standby is "
                    "current), refusing failover")
        outage = self.outage_ns()
        if (self.down_since is not None and not force
                and outage < self.failover_deadline_ns):
            raise SLSError(
                f"link down only {outage}ns (< deadline "
                f"{self.failover_deadline_ns}ns): keep retrying before "
                f"failing over")
        self.stop()
        events.emit(self._clock().now(), events.FAILOVER,
                    group=self.group.group_id, ckpt=self.last_shipped,
                    outage_ns=outage)
        return self.dst_sls.restore(self.group.group_id,
                                    ckpt_id=self.last_shipped,
                                    lazy=lazy)

    def lag_checkpoints(self) -> int:
        """How many committed checkpoints the standby is behind."""
        chain = self.src_sls.store.checkpoints_for(self.group.group_id,
                                                   include_partial=True)
        if self.last_shipped is None:
            return len(chain)
        return sum(1 for info in chain if info.ckpt_id > self.last_shipped)

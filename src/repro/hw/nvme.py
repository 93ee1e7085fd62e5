"""Simulated NVMe devices and the 64 KiB striped array.

The paper's testbed stripes four Intel Optane 900P devices at 64 KiB.
The model charges each device ``latency + size / bandwidth`` per
command, serialized per device (``busy_until``), so concurrent IO to
different stripe units overlaps while a single synchronous stream sees
queue-depth-1 behaviour — exactly the asymmetry behind Table 5's
journal column versus Table 7's 97.6 ms async flush.

A checkpoint's flush reaches the array as one batch
(:meth:`StripedArray.submit_writes`): each command still gets its own
completion time from the same per-device recurrence and its own turn
at the fault plan, but the telemetry is booked once per device per
batch — one counter add each and one ``nvme.write`` span carrying
``commands`` and ``bytes`` labels — with one latency sample per
command in the device's ``nvme.write`` series.
:meth:`NVMeDevice.queue_write` is the one queueing primitive; a single
write is a batch of one.

Payload storage is *extent exact*: callers read back exactly the
extents they wrote (the object store's metadata always records extent
offsets and lengths).  Asynchronous writes only become durable at
their completion time; :meth:`NVMeDevice.discard_inflight` models a
power failure dropping everything still in the device queue, which the
crash-recovery property tests rely on.

An extent's payload is one of three kinds:

* real ``bytes``;
* a synthetic ``("synthetic", seed, length)`` page marker, standing in
  for bytes the simulation never needs to see;
* a :class:`DeferredPayload` — a fixed length now, its bytes built the
  first time anything reads the extent.  The device keeps the built
  bytes as the payload from then on and drops the deferred object, so
  a payload is built at most once.  Only :meth:`NVMeDevice.place_extent`
  lands one (the flight recorder's capture riding each superblock
  flip); building costs no simulated time.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Tuple, Union)

from .clock import SimClock
from ..core import costs, telemetry
from ..core.faults import InjectedCrash
from ..errors import DeviceFull, StoreError
from ..units import STRIPE_SIZE

if TYPE_CHECKING:
    from ..core.faults import FaultPlan
    from ..core.resilience import RetryPolicy


class DeferredPayload:
    """A payload whose length is fixed when it is placed and whose
    bytes are built on first read.  :meth:`build` must return exactly
    ``len(self)`` bytes and the same bytes whenever it is called."""

    __slots__ = ()

    def __len__(self) -> int:
        raise NotImplementedError

    def build(self) -> bytes:
        raise NotImplementedError


#: Extent payloads: real bytes, a synthetic (seed, length) marker, or
#: bytes built on first read.
Payload = Union[bytes, Tuple[str, int, int], DeferredPayload]


def synthetic_payload(seed: int, length: int) -> Payload:
    """A (seed, length) marker standing in for real bytes."""
    return ("synthetic", seed, length)


def payload_length(payload: Payload) -> int:
    """Byte length of a payload of any of the three kinds."""
    if isinstance(payload, tuple):
        return payload[2]
    return len(payload)


class NVMeDevice:
    """One simulated NVMe namespace."""

    def __init__(self, clock: SimClock, capacity: int, name: str = "nvd0"):
        self.clock = clock
        self.capacity = capacity
        self.name = name
        self._extents: Dict[int, Payload] = {}
        self._busy_until = 0
        #: (apply_at, offset, payload) for writes still in the queue.
        self._inflight: List[Tuple[int, int, Payload]] = []
        self.bytes_written = 0
        self.bytes_read = 0
        self.write_commands = 0
        self.read_commands = 0
        # Telemetry counters and the write series are resolved once
        # here: queueing and reads are the hot paths, so no registry
        # lookups per command.
        registry = telemetry.registry()
        self._registry = registry
        inst = telemetry.next_instance()
        self._t_bytes_written = registry.counter(
            "nvme.bytes_written", device=name, inst=inst)
        self._t_bytes_read = registry.counter(
            "nvme.bytes_read", device=name, inst=inst)
        self._t_write_commands = registry.counter(
            "nvme.write_commands", device=name, inst=inst)
        self._t_read_commands = registry.counter(
            "nvme.read_commands", device=name, inst=inst)
        #: Per-command write latency, one sample per queued command.
        self._t_write_ns = registry.histogram("nvme.write", device=name)

    # -- timing ------------------------------------------------------------

    def _command_time(self, nbytes: int, latency: int, bandwidth: int) -> int:
        """Completion time for a command submitted now.

        Bandwidth serializes commands on the device (``_busy_until``),
        but completion latency overlaps across queued commands — the
        queue-depth behaviour of real NVMe.  A synchronous caller that
        waits for each completion before submitting the next therefore
        degenerates to queue-depth-1 (the journal path) while a
        flood of async submissions streams at device bandwidth.
        """
        start = max(self.clock.now(), self._busy_until)
        transfer = (nbytes * 1_000_000_000) // bandwidth
        self._busy_until = start + transfer
        return start + transfer + latency

    # -- writes ------------------------------------------------------------

    def queue_write(self, offset: int, payload: Payload, nbytes: int,
                    sync: bool = False) -> int:
        """The one queueing primitive: queue an ``nbytes`` write and
        return its completion time (ns).

        ``sync`` selects the queue-depth-1 latency/bandwidth profile
        used by the journal path.  The payload becomes visible (and
        durable) only at the returned completion time; callers that
        need synchronous semantics advance the clock to it.  Counts the
        command and feeds its latency sample; the counter adds and the
        span are booked by the caller (:meth:`book_writes`), once per
        batch.
        """
        if offset < 0 or offset + nbytes > self.capacity:
            raise DeviceFull(
                f"write [{offset}, {offset + nbytes}) beyond {self.name} "
                f"capacity {self.capacity}"
            )
        if sync:
            done = self._command_time(nbytes, costs.SYNC_WRITE_LATENCY,
                                      costs.SYNC_WRITE_BW)
        else:
            done = self._command_time(nbytes, costs.NVME_WRITE_LATENCY,
                                      costs.NVME_WRITE_BW)
        self._inflight.append((done, offset, payload))
        self.bytes_written += nbytes
        self.write_commands += 1
        if self._registry.enabled:
            self._t_write_ns.observe(done - self.clock.now())
        return done

    def book_writes(self, start_ns: int, end_ns: int, commands: int,
                    nbytes: int) -> None:
        """Book ``commands`` queued writes of ``nbytes`` in all: one add
        to each counter and one ``nvme.write`` span from the first
        submission to the last completion, attributed to whatever
        operation trace is active (the registry's ambient trace),
        without this layer knowing about traces."""
        self._t_bytes_written.add(nbytes)
        self._t_write_commands.add(commands)
        self._registry.record_batch_span(
            "nvme.write", start_ns, end_ns, device=self.name,
            commands=commands, bytes=nbytes)

    def poll(self) -> None:
        """Apply every queued write whose completion time has passed."""
        now = self.clock.now()
        still_pending = []
        for done, offset, payload in self._inflight:
            if done <= now:
                self._extents[offset] = payload
            else:
                still_pending.append((done, offset, payload))
        self._inflight = still_pending

    # -- reads ---------------------------------------------------------------

    def _payload_at(self, offset: int) -> Payload:
        """The durable payload at ``offset``, a deferred one built (and
        kept in its place) first."""
        try:
            payload = self._extents[offset]
        except KeyError:
            raise StoreError(f"no extent at offset {offset} on {self.name}")
        if isinstance(payload, DeferredPayload):
            payload = self._extents[offset] = payload.build()
        return payload

    def read(self, offset: int) -> Payload:
        """Read back the extent previously written at ``offset``."""
        self.poll()
        payload = self._payload_at(offset)
        nbytes = payload_length(payload)
        submitted = self.clock.now()
        done = self._command_time(nbytes, costs.NVME_READ_LATENCY,
                                  costs.NVME_READ_BW)
        self.clock.advance_to(done)
        self.bytes_read += nbytes
        self.read_commands += 1
        self._t_bytes_read.add(nbytes)
        self._t_read_commands.add(1)
        if self._registry.enabled:
            self._registry.record_span("nvme.read", submitted, done,
                                       device=self.name)
        return payload

    def read_async(self, offset: int) -> Tuple[Payload, int]:
        """Queue a read; returns (payload, completion time).

        Callers batching many reads advance the clock once to the max
        completion time, modeling a deep read queue (restore reads all
        object records in parallel)."""
        self.poll()
        payload = self._payload_at(offset)
        nbytes = payload_length(payload)
        submitted = self.clock.now()
        done = self._command_time(nbytes, costs.NVME_READ_LATENCY,
                                  costs.NVME_READ_BW)
        self.bytes_read += nbytes
        self.read_commands += 1
        self._t_bytes_read.add(nbytes)
        self._t_read_commands.add(1)
        if self._registry.enabled:
            self._registry.record_span("nvme.read", submitted, done,
                                       device=self.name)
        return payload, done

    def has_extent(self, offset: int) -> bool:
        """True when a durable extent exists at ``offset``."""
        self.poll()
        return offset in self._extents

    def extents(self) -> Iterator[Tuple[int, Payload]]:
        """Every extent on media as ``(offset, payload)``, each
        deferred payload built first: what a saved image or a digest
        holds.  No IO statistics, no clock, no poll — the media exactly
        as it stands."""
        for offset in list(self._extents):
            yield offset, self._payload_at(offset)

    def discard_extent(self, offset: int) -> None:
        """Drop an extent (GC reclaimed its blocks)."""
        self._extents.pop(offset, None)

    def tear_write(self, offset: int, payload: Payload) -> None:
        """Force a (truncated) payload durable immediately.

        Models the media-side half of a torn write: part of the
        command's data reached flash before power died, bypassing the
        queue that :meth:`discard_inflight` tears away.
        """
        self._extents[offset] = payload

    def place_extent(self, offset: int, payload: Payload) -> None:
        """Stage a payload onto media with zero simulated cost.

        The observability sidecar path (the flight recorder riding
        each superblock flip): the payload lands immediately, advances
        no clock, consumes no device bandwidth, records no span and
        counts in no IO statistics — so instrumented runs stay
        timing-identical and crash-schedule IO indices are unchanged.
        Durability semantics are the caller's problem: the extent is
        only *meaningful* once something durable references it.
        """
        nbytes = payload_length(payload)
        if offset < 0 or offset + nbytes > self.capacity:
            raise DeviceFull(
                f"place [{offset}, {offset + nbytes}) beyond {self.name} "
                f"capacity {self.capacity}"
            )
        self._extents[offset] = payload

    def cancel_inflight_at(self, offset: int) -> int:
        """Drop queued writes targeting ``offset`` before they land.

        An aborted checkpoint frees its extents while some of its
        writes may still sit in the device queue; cancelling them
        keeps a later reuse of the blocks from being clobbered by a
        stale write completing afterwards.  Returns writes dropped.
        """
        self.poll()
        before = len(self._inflight)
        self._inflight = [entry for entry in self._inflight
                          if entry[1] != offset]
        return before - len(self._inflight)

    # -- crash behaviour -------------------------------------------------------

    def discard_inflight(self) -> int:
        """Power failure: drop writes still in the queue.

        Writes whose completion time has passed are applied first (they
        made it to media); the rest are torn away.  Returns the number
        of writes lost.
        """
        self.poll()
        lost = len(self._inflight)
        self._inflight.clear()
        self._busy_until = self.clock.now()
        return lost


class StripedArray:
    """Four devices striped at 64 KiB, presented as one address space.

    Extents are assigned to a device by their starting stripe unit.
    The object store's block allocator deliberately round-robins
    allocations across stripe units, so large flushes fan out over all
    devices (aggregate bandwidth), while a single synchronous journal
    stream keeps hitting one device at a time (single-stream
    bandwidth) — reproducing the paper's two IO regimes.
    """

    def __init__(self, clock: SimClock, ndevices: int = costs.NVME_DEVICES,
                 capacity_per_device: int = 256 * 1024 * 1024 * 1024,
                 stripe: int = STRIPE_SIZE):
        if ndevices < 1:
            raise ValueError("array needs at least one device")
        self.clock = clock
        self.stripe = stripe
        # One stripe of tail slack per device: extents may start in
        # the last stripe unit and spill past it.
        self.devices = [
            NVMeDevice(clock, capacity_per_device + stripe,
                       name=f"nvd{i}")
            for i in range(ndevices)
        ]
        self.capacity = ndevices * capacity_per_device
        #: Optional FaultPlan consulted before every write dispatch
        #: (installed via Machine.set_fault_plan, cleared on crash).
        self.fault_plan: Optional[FaultPlan] = None

    def _device_for(self, offset: int) -> Tuple[NVMeDevice, int]:
        """Classic RAID-0 LBA mapping: stripe unit ``u`` lives on
        device ``u mod n`` at device-local unit ``u div n``."""
        unit = offset // self.stripe
        ndev = len(self.devices)
        device = self.devices[unit % ndev]
        local = (unit // ndev) * self.stripe + offset % self.stripe
        return device, local

    def submit_writes(self, writes: Iterable[Tuple[int, Payload]],
                      retry: Optional[RetryPolicy] = None,
                      op: Optional[str] = None,
                      sync: bool = False) -> List[int]:
        """Queue a batch of ``(offset, payload)`` writes, in order;
        returns their completion times (ns).

        Before each command the fault plan, if any, is consulted.
        ``retry`` re-runs a command that failed retryably, and only
        that command (:meth:`RetryPolicy.run`); without one the failure
        propagates.  ``writes`` may be a generator: a command is drawn
        only once the one before it is queued, so whatever the caller
        does between commands (allocating, advancing the clock) happens
        in the order it would between one-at-a-time submits.

        Telemetry is booked once per device per batch — one add to
        each counter and one ``nvme.write`` span with ``commands`` and
        ``bytes`` labels — and a batch cut short (a crash, an
        exhausted retry) still books every command that reached a
        queue.  Each completion time is the one submitting the
        commands one at a time would give.
        """
        clock = self.clock
        plan = self.fault_plan
        dones: List[int] = []
        #: device -> [first submission, last completion, commands, bytes]
        booked: Dict[NVMeDevice, List[int]] = {}
        try:
            for offset, payload in writes:
                device, local = self._device_for(offset)
                nbytes = payload_length(payload)
                if plan is None:
                    done = device.queue_write(local, payload, nbytes, sync)
                elif retry is None:
                    done = self._queue_planned(plan, device, local, offset,
                                               payload, nbytes, sync)
                else:
                    done = retry.run(
                        lambda: self._queue_planned(
                            plan, device, local, offset, payload, nbytes,
                            sync),
                        op=op)
                dones.append(done)
                book = booked.get(device)
                if book is None:
                    booked[device] = [clock.now(), done, 1, nbytes]
                else:
                    book[1] = done
                    book[2] += 1
                    book[3] += nbytes
        finally:
            for device, (start, end, commands, nbytes) in booked.items():
                device.book_writes(start, end, commands, nbytes)
        return dones

    @staticmethod
    def _queue_planned(plan: FaultPlan, device: NVMeDevice, local: int,
                       offset: int, payload: Payload, nbytes: int,
                       sync: bool) -> int:
        """Queue one command past the fault plan: a torn write lands
        its prefix and raises the crash; an injected failure raises."""
        verb, payload = plan.on_io(offset, payload, sync)
        if verb == "torn":
            device.tear_write(local, payload)
            raise InjectedCrash(
                f"injected torn write at array offset {offset}")
        return device.queue_write(local, payload, nbytes, sync)

    def submit_write(self, offset: int, payload: Payload,
                     sync: bool = False) -> int:
        """Queue one write on the owning device (a batch of one)."""
        return self.submit_writes(((offset, payload),), sync=sync)[0]

    def write(self, offset: int, payload: Payload, sync: bool = False) -> int:
        """Synchronous write: submit, advance the clock, apply."""
        done = self.submit_writes(((offset, payload),), sync=sync)[0]
        self.clock.advance_to(done)
        self._device_for(offset)[0].poll()
        return done

    def read(self, offset: int) -> Payload:
        """Read back the extent previously written at ``offset``."""
        device, local = self._device_for(offset)
        if self.fault_plan is not None:
            self.fault_plan.on_read(offset)
        return device.read(local)

    def read_async(self, offset: int) -> Tuple[Payload, int]:
        """Queue a read on the owning device (striped dispatch)."""
        device, local = self._device_for(offset)
        if self.fault_plan is not None:
            self.fault_plan.on_read(offset)
        return device.read_async(local)

    def has_extent(self, offset: int) -> bool:
        """True when a durable extent exists at ``offset``."""
        device, local = self._device_for(offset)
        return device.has_extent(local)

    def discard_extent(self, offset: int) -> None:
        """Drop an extent (GC reclaimed its blocks)."""
        device, local = self._device_for(offset)
        device.discard_extent(local)

    def place_extent(self, offset: int, payload: Payload) -> None:
        """Zero-cost media placement (flight-recorder sidecar path).

        Bypasses the fault plan as well as the cost model: no IO index
        is consumed, so crash schedules enumerate exactly the same
        points with or without a flight recorder riding the commit.
        """
        device, local = self._device_for(offset)
        device.place_extent(local, payload)

    def cancel_extent(self, offset: int) -> int:
        """Cancel queued writes to ``offset`` (checkpoint abort)."""
        device, local = self._device_for(offset)
        return device.cancel_inflight_at(local)

    def poll(self) -> None:
        """Apply every queued write whose completion time passed."""
        for device in self.devices:
            device.poll()

    def discard_inflight(self) -> int:
        """Power failure across the whole array."""
        return sum(device.discard_inflight() for device in self.devices)

    @property
    def bytes_written(self) -> int:
        """Total bytes written across the array."""
        return sum(device.bytes_written for device in self.devices)

    @property
    def bytes_read(self) -> int:
        """Total bytes read across the array."""
        return sum(device.bytes_read for device in self.devices)

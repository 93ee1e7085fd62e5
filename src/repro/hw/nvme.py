"""Simulated NVMe devices and the 64 KiB striped array.

The paper's testbed stripes four Intel Optane 900P devices at 64 KiB.
The model charges each device ``latency + size / bandwidth`` per
command, serialized per device (``busy_until``), so concurrent IO to
different stripe units overlaps while a single synchronous stream sees
queue-depth-1 behaviour — exactly the asymmetry behind Table 5's
journal column versus Table 7's 97.6 ms async flush.

A checkpoint's flush reaches the array as one batch of runs, each
``count`` commands of one payload on consecutive stripe units (a single
write is a run of one).  Each device books its share of a run in closed
form (:meth:`NVMeDevice.queue_run`): every command completes when the
one-at-a-time recurrence says, one queue entry lands each at its own
time, and its latency samples go into ``nvme.write`` in one add.

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


#: ``(array offset, commands, payload)``: one payload, consecutive stripes.
Run = Tuple[int, int, Payload]
#: ``(completion, step, commands, offset, payload)``: command ``k`` lands
#: at ``offset + k * len(payload)`` at ``completion + k * step``.
Queued = Tuple[int, int, int, int, Payload]


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
        #: The writes still in the queue, in submission order.
        self._inflight: List[Queued] = []
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

    # -- writes ------------------------------------------------------------

    def queue_run(self, offset: int, count: int, payload: Payload,
                  submit: int, period: int, sync: bool = False) -> int:
        """The one queueing primitive: queue ``count`` writes of
        ``payload`` back to back from ``offset``, the ``k``-th submitted
        at ``submit + k * period`` (``sync``: the journal's queue-depth-1
        profile); returns the last completion (ns).  Bandwidth serializes
        the device, latency overlaps: the ``k``-th starts at ``max(busy +
        k * transfer, submit + k * max(period, transfer))``, one
        progression per queue entry and bulk add of latency samples."""
        nbytes = payload_length(payload)
        if offset < 0 or offset + count * nbytes > self.capacity:
            raise DeviceFull(f"write [{offset}, {offset + count * nbytes}) "
                             f"beyond {self.name} capacity {self.capacity}")
        latency, bandwidth = ((costs.SYNC_WRITE_LATENCY, costs.SYNC_WRITE_BW)
                              if sync else (costs.NVME_WRITE_LATENCY,
                                            costs.NVME_WRITE_BW))
        transfer = (nbytes * 1_000_000_000) // bandwidth
        busy = self._busy_until
        if busy > submit and period > transfer:
            held = (busy - submit) // (period - transfer) + 1
            if held < count:
                # The backlog clears partway: the rest start as submitted.
                self.queue_run(offset, held, payload, submit, period, sync)
                return self.queue_run(offset + held * nbytes, count - held,
                                      payload, submit + held * period,
                                      period, sync)
        start, stride = ((busy, transfer) if busy > submit
                         else (submit, period if period > transfer else transfer))
        done = start + transfer + latency
        self._inflight.append((done, stride, count, offset, payload))
        if self._registry.enabled:
            sample, delta = done - submit, stride - period
            if count == 1:
                self._t_write_ns.observe(sample)
            else:
                self._t_write_ns.observe_many(
                    range(sample, sample + count * delta, delta)
                    if delta else [sample] * count)
        self._busy_until = start + (count - 1) * stride + transfer
        self.bytes_written += count * nbytes
        self.write_commands += count
        return self._busy_until + latency

    def book_writes(self, start_ns: int, end_ns: int, commands: int,
                    nbytes: int) -> None:
        """Book a batch: one add to each counter and one ``nvme.write``
        span, first submission to last completion, in the active trace."""
        self._t_bytes_written.add(nbytes)
        self._t_write_commands.add(commands)
        self._registry.record_batch_span(
            "nvme.write", start_ns, end_ns, device=self.name,
            commands=commands, bytes=nbytes)

    def poll(self) -> None:
        """Apply every queued write whose completion time has passed."""
        now = self.clock.now()
        pending: List[Queued] = []
        for entry in self._inflight:
            done, step, count, offset, payload = entry
            if done > now:
                pending.append(entry)
            elif count == 1:
                self._extents[offset] = payload
            else:   # a run of stripes: step > 0
                landed = min(count, (now - done) // step + 1)
                nbytes = payload_length(payload)
                for at in range(offset, offset + landed * nbytes, nbytes):
                    self._extents[at] = payload
                if landed < count:
                    pending.append((done + landed * step, step, count - landed,
                                    offset + landed * nbytes, payload))
        self._inflight = pending

    def queued(self) -> Iterator[Tuple[int, int, Payload]]:
        """Each queued write as ``(completion, offset, payload)``, in order."""
        for done, step, count, offset, payload in self._inflight:
            nbytes = payload_length(payload)
            for k in range(count):
                yield done + k * step, offset + k * nbytes, payload

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
        payload, done = self.read_async(offset)
        self.clock.advance_to(done)
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
        start = max(submitted, self._busy_until)
        self._busy_until = start + (nbytes * 1_000_000_000
                                    // costs.NVME_READ_BW)
        done = self._busy_until + costs.NVME_READ_LATENCY
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

    def place_extent(self, offset: int, payload: Payload) -> None:
        """Stage a payload onto media with zero simulated cost.

        The observability sidecar path (the flight recorder riding
        each superblock flip), and a torn write's prefix: the payload
        lands immediately, advances no clock, consumes no device
        bandwidth, records no span and counts in no IO statistics — so
        instrumented runs stay timing-identical and crash-schedule IO
        indices are unchanged.  Durability semantics are the caller's
        problem: the extent is only *meaningful* once something durable
        references it.
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
        stale write completing afterwards.  A run loses only that
        command.  Returns writes dropped.
        """
        self.poll()
        kept: List[Queued] = []
        dropped = 0
        for entry in self._inflight:
            done, step, count, first, payload = entry
            k, off = divmod(offset - first, payload_length(payload))
            if off or not 0 <= k < count:
                kept.append(entry)
                continue
            dropped += 1
            nbytes, k = payload_length(payload), k + 1
            kept += [part for part in (
                (done, step, k - 1, first, payload),
                (done + k * step, step, count - k, first + k * nbytes, payload))
                if part[2]]
        self._inflight = kept
        return dropped

    # -- crash behaviour -------------------------------------------------------

    def discard_inflight(self) -> int:
        """Power failure: drop writes still in the queue.

        Writes whose completion time has passed are applied first (they
        made it to media); the rest are torn away.  Returns the number
        of writes lost.
        """
        self.poll()
        lost = sum(entry[2] for entry in self._inflight)
        self._inflight.clear()
        self._busy_until = self.clock.now()
        return lost


class StripedArray:
    """Four devices striped at 64 KiB, presented as one address space.

    Extents are assigned to a device by their starting stripe unit.
    The object store's allocator bump-allocates, and the store asks for
    data extents one stripe unit long, so a run of them lands on
    consecutive units and fans out over all devices (aggregate
    bandwidth), while a single synchronous journal stream keeps
    hitting one device at a time (single-stream bandwidth) —
    reproducing the paper's two IO regimes.
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

    def submit_writes(self, writes: Iterable[Run],
                      retry: Optional[RetryPolicy] = None,
                      op: Optional[str] = None,
                      sync: bool = False, gap: int = 0) -> int:
        """Queue a batch of runs, in order, the clock advancing ``gap``
        (the caller's cost of a command, an allocation) before each
        command; returns the last completion time (ns), or now for an
        empty batch.  Each completion time is the one submitting the
        commands one at a time gives.  ``writes`` may be a generator: a
        run is drawn only once the one before it is queued.  Telemetry
        is booked once per device per batch (:meth:`NVMeDevice.book_writes`),
        a batch cut short booking every command that reached a queue.
        """
        if self.fault_plan is not None:
            writes, gap = self._past_plan(writes, self.fault_plan, retry,
                                          op, sync, gap), 0
        ndev = len(self.devices)
        last = self.clock.now()
        #: device -> [first submission, last completion, commands, bytes]
        booked: Dict[NVMeDevice, List[int]] = {}
        try:
            for offset, count, payload in writes:
                nbytes = payload_length(payload)
                t0 = self.clock.now()
                if gap:
                    self.clock.advance(count * gap)
                unit, within = divmod(offset, self.stripe)
                # Device i takes every n-th command from the i-th.
                for first in range(count if count < ndev else ndev):
                    device = self.devices[(unit + first) % ndev]
                    local = (unit + first) // ndev * self.stripe + within
                    commands = (count - first - 1) // ndev + 1
                    submit = t0 + (first + 1) * gap
                    done = device.queue_run(local, commands, payload,
                                            submit, ndev * gap, sync)
                    book = booked.get(device) or booked.setdefault(
                        device, [submit, done, 0, 0])
                    book[1] = done
                    book[2] += commands
                    book[3] += commands * nbytes
                    last = done if done > last else last
        finally:
            for device, (start, end, commands, nbytes) in booked.items():
                device.book_writes(start, end, commands, nbytes)
        return last

    def _past_plan(self, writes: Iterable[Run], plan: FaultPlan,
                   retry: Optional[RetryPolicy], op: Optional[str],
                   sync: bool, gap: int) -> Iterator[Run]:
        """``writes`` one command at a time, each after ``gap`` and the
        plan: a torn write lands its prefix and crashes, a failure raises
        unless ``retry`` re-runs the command (:meth:`RetryPolicy.run`)."""
        for offset, count, payload in writes:
            nbytes = payload_length(payload)
            for at in range(offset, offset + count * nbytes, nbytes):
                self.clock.advance(gap)
                verb, planned = (
                    plan.on_io(at, payload, sync) if retry is None
                    else retry.run(lambda: plan.on_io(at, payload, sync),
                                   op=op))
                if verb == "torn":
                    device, local = self._device_for(at)
                    device.place_extent(local, planned)
                    raise InjectedCrash(
                        f"injected torn write at array offset {at}")
                yield at, 1, planned

    def submit_write(self, offset: int, payload: Payload,
                     sync: bool = False) -> int:
        """Queue one write on the owning device (a batch of one)."""
        return self.submit_writes(((offset, 1, payload),), sync=sync)

    def write(self, offset: int, payload: Payload, sync: bool = False) -> int:
        """Synchronous write: submit, advance the clock, apply."""
        done = self.submit_writes(((offset, 1, payload),), sync=sync)
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

    @property
    def last_completion(self) -> int:
        """When the last queued write completes (0 with none queued):
        the one instant the array is settled at."""
        return max((done + (count - 1) * step for device in self.devices
                    for done, step, count, _off, _pl in device._inflight),
                   default=0)

    def drain(self) -> None:
        """Land every queued write, the clock at the last (shutdown, the
        end of a benchmark phase)."""
        self.clock.advance_to(self.last_completion)
        self.poll()

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

"""Simulated NVMe devices and the 64 KiB striped array.

The paper's testbed stripes four Intel Optane 900P devices at 64 KiB.
The model charges each device ``latency + size / bandwidth`` per
command, serialized per device (``busy_until``), so concurrent IO to
different stripe units overlaps while a single synchronous stream sees
queue-depth-1 behaviour — exactly the asymmetry behind Table 5's
journal column versus Table 7's 97.6 ms async flush.

Payload storage is *extent exact*: callers read back exactly the
extents they wrote (the object store's metadata always records extent
offsets and lengths).  Asynchronous writes only become durable at
their completion time; :meth:`NVMeDevice.discard_inflight` models a
power failure dropping everything still in the device queue, which the
crash-recovery property tests rely on.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from .clock import SimClock
from ..core import costs, telemetry
from ..errors import DeviceFull, StoreError
from ..units import STRIPE_SIZE

#: Extent payloads are real bytes or a synthetic (seed, length) marker.
Payload = Union[bytes, Tuple[str, int, int]]


def synthetic_payload(seed: int, length: int) -> Payload:
    """A (seed, length) marker standing in for real bytes."""
    return ("synthetic", seed, length)


def payload_length(payload: Payload) -> int:
    """Byte length of a real or synthetic payload."""
    if isinstance(payload, bytes):
        return len(payload)
    return payload[2]


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
        # Telemetry counters are resolved once here: submit/read are
        # the hot paths, so no registry lookups per command.
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

    def submit_write(self, offset: int, payload: Payload,
                     sync: bool = False) -> int:
        """Queue a write; returns its completion time (ns).

        ``sync`` selects the queue-depth-1 latency/bandwidth profile
        used by the journal path.  The payload becomes visible (and
        durable) only at the returned completion time; callers that
        need synchronous semantics advance the clock to it.
        """
        nbytes = payload_length(payload)
        if offset < 0 or offset + nbytes > self.capacity:
            raise DeviceFull(
                f"write [{offset}, {offset + nbytes}) beyond {self.name} "
                f"capacity {self.capacity}"
            )
        submitted = self.clock.now()
        if sync:
            done = self._command_time(nbytes, costs.SYNC_WRITE_LATENCY,
                                      costs.SYNC_WRITE_BW)
        else:
            done = self._command_time(nbytes, costs.NVME_WRITE_LATENCY,
                                      costs.NVME_WRITE_BW)
        self._inflight.append((done, offset, payload))
        self.bytes_written += nbytes
        self.write_commands += 1
        self._t_bytes_written.add(nbytes)
        self._t_write_commands.add(1)
        if self._registry.enabled:
            # Submission→completion span: the IO is attributed to
            # whatever operation trace is active (the registry's
            # ambient trace), without this layer knowing about traces.
            self._registry.record_span("nvme.write", submitted, done,
                                       device=self.name)
        return done

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

    def write(self, offset: int, payload: Payload, sync: bool = False) -> int:
        """Synchronous write: submit, advance the clock, apply."""
        done = self.submit_write(offset, payload, sync=sync)
        self.clock.advance_to(done)
        self.poll()
        return done

    # -- reads ---------------------------------------------------------------

    def read(self, offset: int) -> Payload:
        """Read back the extent previously written at ``offset``."""
        self.poll()
        try:
            payload = self._extents[offset]
        except KeyError:
            raise StoreError(f"no extent at offset {offset} on {self.name}")
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
        try:
            payload = self._extents[offset]
        except KeyError:
            raise StoreError(f"no extent at offset {offset} on {self.name}")
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
        self.fault_plan = None

    def _device_for(self, offset: int) -> Tuple[NVMeDevice, int]:
        """Classic RAID-0 LBA mapping: stripe unit ``u`` lives on
        device ``u mod n`` at device-local unit ``u div n``."""
        unit = offset // self.stripe
        ndev = len(self.devices)
        device = self.devices[unit % ndev]
        local = (unit // ndev) * self.stripe + offset % self.stripe
        return device, local

    def _inject(self, device: NVMeDevice, local: int, offset: int,
                payload: Payload, sync: bool) -> Payload:
        """Consult the fault plan; returns the (possibly corrupted)
        payload to dispatch, or raises the injected failure."""
        from ..core.faults import InjectedCrash

        verb, payload = self.fault_plan.on_io(offset, payload, sync)
        if verb == "torn":
            device.tear_write(local, payload)
            raise InjectedCrash(
                f"injected torn write at array offset {offset}")
        return payload

    def submit_write(self, offset: int, payload: Payload,
                     sync: bool = False) -> int:
        """Queue a write on the owning device (striped dispatch)."""
        device, local = self._device_for(offset)
        if self.fault_plan is not None:
            payload = self._inject(device, local, offset, payload, sync)
        return device.submit_write(local, payload, sync=sync)

    def write(self, offset: int, payload: Payload, sync: bool = False) -> int:
        """Synchronous write: submit, advance the clock, apply."""
        device, local = self._device_for(offset)
        if self.fault_plan is not None:
            payload = self._inject(device, local, offset, payload, sync)
        return device.write(local, payload, sync=sync)

    def read(self, offset: int) -> Payload:
        """Read back the extent previously written at ``offset``."""
        device, local = self._device_for(offset)
        if self.fault_plan is not None:
            self.fault_plan.on_read(offset)
        return device.read(local)

    def read_async(self, offset: int):
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

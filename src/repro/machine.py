"""A simulated machine: clock, storage, and successive kernel boots.

The machine is the crash boundary.  ``crash()`` models a power failure:
in-flight device writes are torn away, every pending event dies, and
the kernel object graph becomes unreachable.  ``boot()`` then brings up
a *fresh* kernel against the same NVMe array — from which Aurora's
object store can recover the last complete checkpoint of every
application (the paper's core promise).

    machine = Machine()
    sls = load_aurora(machine)          # from repro.core.orchestrator
    ...
    machine.crash()
    machine.boot()
    sls = load_aurora(machine)          # recovers the store
    sls.restore(...)
"""

from __future__ import annotations

from typing import Optional

from .core import costs
from .errors import MachineCrashed
from .hw.clock import EventLoop, SimClock
from .hw.nic import NIC
from .hw.nvme import StripedArray
from .kernel.kernel import Kernel
from .units import GiB


class Machine:
    """One simulated server (defaults mirror the paper's testbed)."""

    def __init__(self, ram_bytes: int = costs.PHYSMEM_BYTES,
                 ncpus: int = costs.NCPUS,
                 storage_devices: int = costs.NVME_DEVICES,
                 capacity_per_device: int = 240 * GiB,
                 start_ns: int = 0):
        self.ram_bytes = ram_bytes
        self.ncpus = ncpus
        self.clock = SimClock(start_ns)
        self.loop = EventLoop(self.clock)
        self.storage = StripedArray(self.clock, storage_devices,
                                    capacity_per_device)
        self.nic = NIC(self.clock)
        self.boot_count = 0
        self.kernel: Optional[Kernel] = None
        #: Installed FaultPlan (crash-schedule exploration); volatile —
        #: a power failure clears it like everything else.
        self.fault_plan = None
        self.boot()

    def set_fault_plan(self, plan) -> None:
        """Install a :class:`~repro.core.faults.FaultPlan`.

        The plan observes (and may fail) every device write and every
        checkpoint pipeline stage boundary until the next crash.
        """
        self.fault_plan = plan
        if plan is not None:
            plan.clock = self.clock
        self.storage.fault_plan = plan

    def clear_fault_plan(self) -> None:
        """Remove the installed fault plan (no-op when absent)."""
        self.fault_plan = None
        self.storage.fault_plan = None

    def boot(self) -> Kernel:
        """Bring up a fresh kernel (volatile state starts empty)."""
        if self.kernel is not None and not self.kernel.crashed:
            raise MachineCrashed("machine is already running; crash() or "
                                 "shutdown() first")
        self.boot_count += 1
        # Simulated firmware + kernel boot time.
        self.clock.advance(2_000_000_000)
        self.kernel = Kernel(self, boot_id=self.boot_count)
        return self.kernel

    def crash(self) -> int:
        """Power failure: volatile state is gone, queued IO is torn.

        Returns the number of device writes lost in flight.
        """
        lost = self.storage.discard_inflight()
        self.clear_fault_plan()
        if self.kernel is not None:
            self.kernel.mark_crashed()
        self.kernel = None
        # Pending events (flush completions, checkpoint timers) die
        # with the power; the clock itself keeps counting.
        self.loop = EventLoop(self.clock)
        return lost

    def shutdown(self) -> None:
        """Clean shutdown: lets queued IO drain first."""
        self.loop.drain()
        self.storage.drain()
        if self.kernel is not None:
            self.kernel.mark_crashed()
        self.kernel = None

    def running_kernel(self) -> Kernel:
        """The booted kernel; raises MachineCrashed when down."""
        if self.kernel is None:
            raise MachineCrashed("machine is not booted")
        return self.kernel

    def run_for(self, duration_ns: int) -> int:
        """Advance simulated time, executing scheduled events."""
        return self.loop.run_until(self.clock.now() + duration_ns)

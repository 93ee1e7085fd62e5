"""Device files and the vDSO (§5.3 "Device Files").

Aurora supports a *whitelist* of devices that persistent processes may
hold open or map: hardware timers (the HPET is mapped read-only into
address spaces) and the usual pseudo-devices.  The vDSO is special: it
is kernel-version-specific code, so a restore injects the *current*
boot's vDSO rather than restoring the old one — which is what lets a
checkpoint resume on a machine running a different kernel build.
"""

from __future__ import annotations

from typing import Optional

from ...errors import PermissionDenied
from ...units import PAGE_SIZE
from ..kobject import KObject
from ..vm.vmobject import DEVICE, VMObject

#: Devices a persistent process is allowed to use (§5.3).
DEVICE_WHITELIST = frozenset({"null", "zero", "urandom", "hpet", "tty"})


class DeviceFile(KObject):
    """A character device, optionally memory-mappable (the HPET)."""

    obj_type = "device"

    def __init__(self, kernel, name: str):
        super().__init__(kernel)
        if name not in DEVICE_WHITELIST:
            raise PermissionDenied(
                f"device {name!r} is not on the SLS whitelist")
        self.name = name
        self.vmobject: Optional[VMObject] = None
        if name == "hpet":
            # The HPET registers: one read-only mappable page whose
            # content is machine-local (it is *not* checkpointed; a
            # restore maps the current machine's HPET).
            self.vmobject = VMObject(kernel, 1, kind=DEVICE,
                                     name="dev:hpet")
            self.vmobject.insert((("syn", 0, 1, kernel.boot_id, 0, True),))

    def read(self, nbytes: int) -> bytes:
        """Device read (zeros, random bytes, or nothing)."""
        if self.name == "zero":
            return b"\x00" * nbytes
        if self.name == "urandom":
            return self.kernel.rng.randbytes(nbytes)
        return b""

    def write(self, data: bytes) -> int:
        # null/zero sink everything; tty sinks into the void here.
        """Device write (sunk)."""
        return len(data)

    def destroy(self) -> None:
        """Release the mappable register object, if any."""
        if self.vmobject is not None:
            self.vmobject.unref()
            self.vmobject = None


class VDSO:
    """The per-boot virtual dynamic shared object.

    One page of position-independent fast-path code whose content
    differs per kernel build.  ``inject`` maps the *current* kernel's
    vDSO into an address space; restore calls it instead of restoring
    the checkpoint-time page (§5.3: "On restore we inject the current
    platform's vDSO").
    """

    #: Fixed mapping address used by this simulated platform's ABI.
    VDSO_PAGE = 0x7fff0

    def __init__(self, kernel):
        self.kernel = kernel
        self.vmobject = VMObject(kernel, 1, kind=DEVICE,
                                 name=f"vdso:boot{kernel.boot_id}")
        self.vmobject.insert(
            (("syn", 0, 1, 0x7D50_0000 + kernel.boot_id, 0, True),))

    def inject(self, vmspace) -> int:
        """Map this boot's vDSO into ``vmspace`` at the ABI address."""
        from ..vm.vmmap import PROT_READ, PROT_EXEC
        from ..vm.vmmap import INHERIT_SHARE
        return vmspace.mmap(
            PAGE_SIZE, protection=PROT_READ | PROT_EXEC,
            inheritance=INHERIT_SHARE, vmobject=self.vmobject,
            name="vdso", fixed_page=self.VDSO_PAGE)

    def content_seed(self) -> int:
        """Identifies this boot's vDSO build (tests compare it)."""
        page = self.vmobject.page_at(0)
        assert page is not None and page.seed is not None
        return page.seed

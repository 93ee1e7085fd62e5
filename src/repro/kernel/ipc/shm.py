"""POSIX and System V shared memory.

Shared memory is the case that breaks process-centric checkpointing
(§6: "fork cannot shadow shared memory regions without breaking
sharing") and motivates two Aurora mechanisms reproduced here:

* system shadowing replaces the *one* shared VM object with a shadow
  mapped by every sharer, and
* each segment keeps a **backmap** entry so that after its object is
  replaced by a shadow, future ``mmap``/``shmat`` calls attach the
  newest shadow rather than the frozen parent (§6 "for POSIX or SysV
  shared memory descriptors we introduce a backmap to update the
  reference in the descriptor").

System V segments live in a fixed-size global namespace; checkpointing
one requires scanning that table (the reason Table 4's SysV row costs
14.9 µs against POSIX's 4.5 µs).
"""

from __future__ import annotations

from typing import Dict, Optional

from ...errors import InvalidArgument, NoSuchFile
from ...units import pages_of
from ..kobject import KObject
from ..vm.vmobject import ANONYMOUS, VMObject


class SharedMemorySegment(KObject):
    """A named chunk of shareable memory backed by one VM object."""

    obj_type = "shm"

    def __init__(self, kernel, name: str, size: int, flavor: str = "posix"):
        super().__init__(kernel)
        if flavor not in ("posix", "sysv"):
            raise InvalidArgument(f"bad shm flavor {flavor}")
        self.name = name
        self.size = size
        self.flavor = flavor
        self.vmobject = VMObject(kernel, pages_of(size), kind=ANONYMOUS,
                                 name=f"shm:{name}")
        # The backmap: object kid -> segment, maintained so system
        # shadowing can find and update this descriptor when it
        # replaces the object.
        kernel.shm_backmap[self.vmobject.kid] = self

    def replace_object(self, new_object: VMObject) -> None:
        """Point the descriptor at the newest system shadow."""
        kernel = self.kernel
        # Shadows of one logical object share its on-disk OID, so the
        # routine per-checkpoint repoint leaves the serialized record
        # unchanged; only an identity change dirties the descriptor.
        if new_object.sls_oid != self.vmobject.sls_oid:
            self.mark_dirty()
        kernel.shm_backmap.pop(self.vmobject.kid, None)
        new_object.ref()
        self.vmobject.unref()
        self.vmobject = new_object
        kernel.shm_backmap[new_object.kid] = self

    def destroy(self) -> None:
        """Release the backmap entry and the VM object."""
        self.kernel.shm_backmap.pop(self.vmobject.kid, None)
        self.vmobject.unref()


class PosixShmRegistry:
    """``shm_open`` namespace: "/name" → segment."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._segments: Dict[str, SharedMemorySegment] = {}

    def open(self, name: str, size: int = 0,
             create: bool = False) -> SharedMemorySegment:
        """Find or create the named POSIX segment."""
        segment = self._segments.get(name)
        if segment is None:
            if not create:
                raise NoSuchFile(name)
            segment = SharedMemorySegment(self.kernel, name, size, "posix")
            self._segments[name] = segment
        return segment

    def unlink(self, name: str) -> None:
        """Remove the name; mappings keep the segment alive."""
        segment = self._segments.pop(name, None)
        if segment is None:
            raise NoSuchFile(name)
        segment.unref()

    def names(self):
        """Registered POSIX shm names, sorted."""
        return sorted(self._segments)

    def segments(self):
        """Every live segment in this namespace."""
        return list(self._segments.values())


class SysVShmRegistry:
    """The global System V namespace: a fixed table of slots.

    ``nslots`` mirrors ``shmmni``; Aurora's checkpoint of a SysV
    segment scans all slots (charged by the serializer), reproducing
    the Table 4 cost asymmetry.
    """

    def __init__(self, kernel, nslots: int = 128):
        self.kernel = kernel
        self.nslots = nslots
        self._by_key: Dict[int, int] = {}
        self._slots: Dict[int, Optional[SharedMemorySegment]] = {}
        self._next_id = 1

    def shmget(self, key: int, size: int, create: bool = False) -> int:
        """Find or create the segment for ``key``; returns the shmid."""
        if key in self._by_key:
            return self._by_key[key]
        if not create:
            raise NoSuchFile(f"SysV key {key:#x}")
        if len(self._by_key) >= self.nslots:
            raise InvalidArgument("SysV namespace full (shmmni)")
        shmid = self._next_id
        self._next_id += 1
        segment = SharedMemorySegment(self.kernel, f"sysv:{key:#x}", size,
                                      "sysv")
        segment.shmid = shmid
        segment.key = key
        self._by_key[key] = shmid
        self._slots[shmid] = segment
        return shmid

    def segment(self, shmid: int) -> SharedMemorySegment:
        """Segment by shmid (ENOENT when absent)."""
        segment = self._slots.get(shmid)
        if segment is None:
            raise NoSuchFile(f"shmid {shmid}")
        return segment

    def shmctl_rmid(self, shmid: int) -> None:
        """IPC_RMID: drop the key and release the registry reference."""
        segment = self._slots.pop(shmid, None)
        if segment is None:
            raise NoSuchFile(f"shmid {shmid}")
        self._by_key.pop(segment.key, None)
        segment.unref()

    def segments(self):
        """Every live segment in this namespace."""
        return [seg for seg in self._slots.values() if seg is not None]

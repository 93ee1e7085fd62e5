"""The Aurora object store (paper §7).

A copy-on-write store purpose-built for high-frequency checkpoints:

* every POSIX/memory/file object is a first-class on-disk object named
  by a 64-bit OID;
* checkpoints are *incremental* — each stores only the object records
  and pages modified since its parent — and commit with a two-slot
  superblock flip so a crash can never observe a torn checkpoint;
* garbage collection is WAFL/ZFS-style (reference transfer on snapshot
  deletion), never log-cleaning, so it cannot stall a checkpoint;
* ``sls_journal`` regions are preallocated non-COW extents updated in
  place for microsecond-latency synchronous writes.
"""

from .oid import OIDAllocator
from .blockalloc import ExtentAllocator
from .checkpoint import CheckpointInfo
from .journal import Journal
from .scrub import ScrubReport
from .store import ObjectStore

__all__ = [
    "OIDAllocator",
    "ExtentAllocator",
    "CheckpointInfo",
    "Journal",
    "ObjectStore",
    "ScrubReport",
]

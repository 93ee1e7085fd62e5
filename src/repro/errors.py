"""Exception hierarchy for the Aurora reproduction.

The simulated kernel reports POSIX-style failures with
:class:`KernelError` subclasses carrying an errno-like name, while the
single level store and object store have their own failure domains.
Keeping the hierarchy in one module lets callers catch at whatever
granularity they need (``except ReproError`` at the top level, or
``except BadFileDescriptor`` in a test).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# --- kernel / POSIX -------------------------------------------------------


class KernelError(ReproError):
    """A simulated system call failed.

    ``errno_name`` mirrors the POSIX errno the real kernel would return
    so tests can assert on it without string matching.
    """

    errno_name = "EINVAL"

    def __init__(self, message: str = ""):
        super().__init__(message or self.errno_name)


class BadFileDescriptor(KernelError):
    """EBADF: the fd is not open in the calling process."""
    errno_name = "EBADF"


class NoSuchFile(KernelError):
    """ENOENT: no such file, key, or named object."""
    errno_name = "ENOENT"


class FileExists(KernelError):
    """EEXIST: the name already exists."""
    errno_name = "EEXIST"


class NotADirectory(KernelError):
    """ENOTDIR: a path component is not a directory."""
    errno_name = "ENOTDIR"


class IsADirectory(KernelError):
    """EISDIR: data operation attempted on a directory."""
    errno_name = "EISDIR"


class DirectoryNotEmpty(KernelError):
    """ENOTEMPTY: directory removal with entries present."""
    errno_name = "ENOTEMPTY"


class NoSuchProcess(KernelError):
    """ESRCH: no process with that pid."""
    errno_name = "ESRCH"


class PermissionDenied(KernelError):
    """EPERM: the operation is not permitted."""
    errno_name = "EPERM"


class InvalidArgument(KernelError):
    """EINVAL: a malformed or out-of-range argument."""
    errno_name = "EINVAL"


class WouldBlock(KernelError):
    """EAGAIN: the operation would block (buffers full/empty)."""
    errno_name = "EAGAIN"


class BrokenPipe(KernelError):
    """EPIPE: writing to a pipe with no readers."""
    errno_name = "EPIPE"


class NotConnected(KernelError):
    """ENOTCONN: socket operation without a peer."""
    errno_name = "ENOTCONN"


class ConnectionRefused(KernelError):
    """ECONNREFUSED: no listener at the destination."""
    errno_name = "ECONNREFUSED"


class AddressInUse(KernelError):
    """EADDRINUSE: the address/port is already bound."""
    errno_name = "EADDRINUSE"


class SegmentationFault(KernelError):
    """Access to an unmapped or protection-violating address."""

    errno_name = "SIGSEGV"


class NoSpace(KernelError):
    """ENOSPC: the backing object (journal, device) is full."""
    errno_name = "ENOSPC"


# --- single level store ---------------------------------------------------


class SLSError(ReproError):
    """Base class for Aurora single-level-store failures."""


class NotAttached(SLSError):
    """Operation requires the process to be in a consistency group."""


class AlreadyAttached(SLSError):
    """Process is already part of a consistency group."""


class NoSuchCheckpoint(SLSError):
    """Requested checkpoint id does not exist in the store."""


class RestoreError(SLSError):
    """A restore could not recreate the application."""


class AdmissionRejected(SLSError):
    """The fleet scheduler refused to admit a consistency group:
    admitting it would push aggregate checkpoint demand past the
    store's measured throughput (``sls attach`` with the ``reject``
    admission policy)."""


# --- cluster replication ---------------------------------------------------


class ClusterError(SLSError):
    """Base class for quorum-cluster failures."""


class QuorumLost(ClusterError):
    """Fewer nodes are reachable than the read quorum requires."""


class StaleReplica(ClusterError):
    """A node whose applied history trails the quorum-durable
    watermark was asked to take over; promoting it would silently
    roll back acknowledged state."""


class SegmentCorrupt(ClusterError):
    """A replicated segment failed checksum or completeness checks."""


class StaleEpoch(ClusterError):
    """A ship/apply/ack carried a membership epoch older than the
    receiving node's durably promised epoch: the write was fenced.
    Not retryable — the sender's primaryship is over, and it must
    drain into the stale-primary degraded mode, not retry."""

    def __init__(self, message: str = "", epoch: int = 0) -> None:
        super().__init__(message)
        #: The newer epoch the rejecting node has promised.
        self.epoch = epoch


class LeaseValid(ClusterError):
    """Failover was refused because the incumbent primary still holds
    an unexpired sim-clock lease — promoting now could fork history
    while the incumbent is merely partitioned, not dead."""


# --- object store ----------------------------------------------------------


class StoreError(ReproError):
    """Base class for object-store failures."""


class StoreFull(StoreError):
    """The backing device has no free extents."""


class CorruptRecord(StoreError):
    """A record failed checksum or decode validation."""


class NoSuchObject(StoreError):
    """Object id is not present in the store."""


# --- simulated hardware ----------------------------------------------------


class HardwareError(ReproError):
    """Base class for simulated-device failures."""


class DeviceFull(HardwareError):
    """Write past the end of a simulated device."""


class TransientDeviceError(HardwareError):
    """A device command failed in a way that may succeed on retry.

    Raised by the fault layer for *transient* and *intermittent*
    faults; :mod:`repro.core.resilience` retries these with backoff.
    Everything else a device raises is considered fatal.
    """


class LinkDown(HardwareError):
    """A replication link flapped; reconnecting may succeed."""


class RetriesExhausted(HardwareError):
    """A retry policy gave up: attempts or deadline exceeded.

    ``last_error`` carries the final transient failure so callers can
    distinguish device trouble from link trouble.
    """

    def __init__(self, message: str = "",
                 last_error: "Exception | None" = None):
        super().__init__(message)
        self.last_error = last_error


class MachineCrashed(ReproError):
    """Raised when code touches a kernel that has been crashed."""

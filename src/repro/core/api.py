"""The Aurora application API (Table 3).

Custom applications trade transparency for control: they trigger their
own checkpoints, exclude scratch memory, checkpoint single regions
atomically without quiescing the whole application, journal
synchronously, and suppress external synchrony per descriptor.  The
customized RocksDB (§9.6) uses two of them: its WAL becomes
``sls_journal``, and its memtable — the whole database once the LSM
tree is gone — persists through ``sls_checkpoint``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import InvalidArgument, NotAttached
from ..objstore.journal import Journal
from ..units import PAGE_SIZE, pages_of
from .orchestrator import CheckpointResult, Orchestrator


class AuroraAPI:
    """Per-process binding of the sls_* calls."""

    def __init__(self, sls: Orchestrator, proc):
        self.sls = sls
        self.proc = proc

    @property
    def group(self):
        """The calling process's consistency group (or NotAttached)."""
        group = self.proc.sls_group
        if group is None:
            raise NotAttached(f"{self.proc} is not attached to Aurora")
        return group

    # -- whole-application checkpoints -------------------------------------------------

    def sls_checkpoint(self, name: str = "", full: bool = False,
                       sync: bool = False) -> CheckpointResult:
        """Manually checkpoint the calling process's group."""
        return self.sls.checkpoint(self.group, name=name, full=full,
                                   sync=sync)

    def sls_barrier(self) -> int:
        """Block until the newest checkpoint is durable on the array."""
        return self.sls.barrier(self.group)

    def sls_restore(self, ckpt_id: Optional[int] = None):
        """Roll the application back to a checkpoint.

        The current incarnation is torn down and a fresh one is
        restored; the restored processes receive SIGSLSRESTORE so the
        application can fix up runtime state (§3).
        """
        group = self.group
        group_id = group.group_id
        group.cancel_timer()
        for proc in list(group.processes):
            group.remove_process(proc)
            proc.exit(0)
        self.sls.groups.pop(group_id, None)
        return self.sls.restore(group_id, ckpt_id=ckpt_id)

    # -- fine-grained persistence ----------------------------------------------------------

    def sls_memckpt(self, addr: int, nbytes: int,
                    sync: bool = False) -> CheckpointResult:
        """Atomically checkpoint one mapped region (§7).

        Shadows just that region's VM object and flushes it
        asynchronously as a *partial* checkpoint; at restore the store
        composes it on top of the preceding full checkpoint.  No
        quiesce, no OS-state walk — the Table 5 "Atomic" column.  It
        is the pipeline's atomic mode, so a failed flush rolls back as
        any checkpoint's does.
        """
        entry = self.proc.vmspace.entry_at(addr)
        if (addr + nbytes - 1) // PAGE_SIZE >= entry.end_page:
            raise InvalidArgument("region spans multiple map entries")
        return self.sls.checkpoint(self.group, name="memckpt", sync=sync,
                                   region=entry)

    # -- journals ----------------------------------------------------------------------------

    def sls_journal_open(self, capacity: int) -> Journal:
        """Preallocate a non-COW journal region (the custom-WAL path)."""
        return self.sls.store.journal_create(capacity)

    def sls_journal(self, journal: Journal, data: bytes) -> int:
        """Synchronous non-temporal flush outside the checkpoint
        (Table 3).  28 µs for one 4 KiB page (§7)."""
        return journal.append(data)

    def sls_journal_truncate(self, journal: Journal) -> None:
        """Reset a journal (epoch bump; one sync header write)."""
        journal.truncate()

    # -- knobs -----------------------------------------------------------------------------------

    def sls_mctl(self, addr: int, nbytes: int, exclude: bool = True) -> int:
        """Include/exclude memory regions from checkpoints (§3).

        Returns the number of map entries affected."""
        space = self.proc.vmspace
        start_page = addr // PAGE_SIZE
        end_page = start_page + pages_of(nbytes)
        affected = 0
        for entry in space.map:
            if entry.start_page >= start_page and entry.end_page <= end_page:
                entry.sls_excluded = exclude
                affected += 1
        if affected == 0:
            raise InvalidArgument("range covers no complete map entry")
        return affected

    def sls_fdctl(self, fd: int, nosync: bool = True) -> None:
        """Suppress (or re-enable) external synchrony on one
        descriptor — e.g. read-only client connections (§3)."""
        file = self.proc.fdtable.get(fd)
        file.sls_nosync = nosync
        file.mark_dirty()

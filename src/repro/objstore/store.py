"""The object store proper.

Commit protocol (all COW — nothing live is ever overwritten):

1. Page data and object records are staged into freshly allocated
   extents and submitted to the device queue (asynchronously for
   continuous checkpoints, so the application runs while IO drains).
2. When every data write has completed, the checkpoint's metadata
   record, a new catalog record and finally the superblock (two slots,
   alternating by generation) are written.  Only the superblock flip
   makes the checkpoint visible, so a crash at any instant leaves the
   store at the *previous* complete checkpoint — the recovery property
   the crash tests hammer on.  An async commit's transaction holds its
   callbacks and its event-loop finalizer; an abort cancels the
   finalizer, so an aborted commit is never published.

Incremental state: each checkpoint stores a delta; the restorable view
is the newest-wins merge along the parent chain
(:meth:`ObjectStore.merged_view`).

Space has one record, its owners (:meth:`ObjectStore.owned_extents`).
The superblock carries the allocator's cursor, not its free list: a
mount derives the free list from what the recovered checkpoints,
journals, catalog and flight record hold
(:meth:`~repro.objstore.blockalloc.ExtentAllocator.derive`), so it
frees whatever no durable owner reaches.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from ..core import costs, events, flightrec, telemetry, tracing
from ..core.faults import InjectedCrash
from ..core.resilience import RetryPolicy
from ..core.runs import LocatorRun, append_locator_run, splice
from ..errors import (CorruptRecord, InvalidArgument, MachineCrashed,
                      NoSuchCheckpoint, NoSuchObject, ReproError,
                      StoreError)
from ..hw.clock import Event
from ..hw.memory import Page
from ..hw.nvme import Run, StripedArray, synthetic_payload
from ..units import PAGE_SIZE, STRIPE_SIZE
from . import records
from .blockalloc import ExtentAllocator
from .checkpoint import (CheckpointInfo, PageRuns, RecordEntry, RecordIndex,
                         chain_of, live_set, overlay_page_maps)
from .journal import Journal
from .oid import CLASS_JOURNAL, OIDAllocator
from . import recovery as recovery_mod
from . import gc as gc_mod

#: Superblock slots live in the first two stripe units.
SUPERBLOCK_SLOTS = (0, STRIPE_SIZE)

#: Object records staged per batch extent.  Large enough to amortize
#: extent allocation and write submission across a checkpoint's record
#: set (10k fds → ~40 extents), small enough that one corrupt extent
#: loses a bounded slice of the catalog.
RECORD_BATCH = 256


class Flip:
    """One store transaction up to its superblock flip, and the store's
    one rollback: every flip caller stages into one.  The catalog
    (order included) and the allocator are saved when it opens, any
    other change is recorded in ``undo`` as it is made, and as a context
    manager a failure short of a crash before the superblock write
    lands takes all of it back.  The flip writes the metadata of the
    checkpoints on ``rewrite``, unreferences the extents on ``release``
    and runs ``landed`` once it has landed; a :meth:`savepoint` lets
    the newest GC victims be taken back."""

    def __init__(self, store: "ObjectStore") -> None:
        self.store = store
        self.rewrite: List[CheckpointInfo] = []
        self.release: List[Tuple[int, int]] = []
        self.landed: List[Callable[[], None]] = []
        self.undo: List[Callable[[], None]] = []
        self._start = self.savepoint()

    def savepoint(self) -> Tuple[Any, ...]:
        return (len(self.undo), len(self.rewrite), len(self.release),
                len(self.landed), dict(self.store.checkpoints),
                self.store.alloc.snapshot())

    def save(self, obj: Any, *names: str) -> None:
        """Put ``obj``'s ``names`` back as they are now on a rollback:
        a change replaces their values, never edits them."""
        self.undo += [functools.partial(setattr, obj, name, getattr(obj, name))
                      for name in names]

    def rollback(self, mark: Optional[Tuple[Any, ...]] = None) -> None:
        """Take back, newest first, what was staged since ``mark`` (by
        default, since the transaction opened)."""
        undo, rewrite, release, landed, checkpoints, alloc = \
            mark or self._start
        while len(self.undo) > undo:
            self.undo.pop()()
        del self.rewrite[rewrite:], self.release[release:], \
            self.landed[landed:]
        self.store.checkpoints.clear()
        self.store.checkpoints.update(checkpoints)
        self.store.alloc.restore(alloc)

    def __enter__(self) -> "Flip":
        return self

    def __exit__(self, kind: Any, exc: Optional[BaseException],
                 trace: Any) -> None:
        # A power failure is not undone: the host is dying.
        if isinstance(exc, ReproError) and not isinstance(
                exc, (InjectedCrash, MachineCrashed)):
            self.rollback()


class CheckpointTxn:
    """Staging area for one checkpoint: the one transaction every
    checkpoint stages into.  A disk checkpoint's is opened by
    :meth:`ObjectStore.begin_checkpoint` and committed; a mem-mode
    (stop-time measurement) checkpoint's is built on an id-less
    ``CheckpointInfo(-1, group)`` and never committed, so it stages at
    the same cost and nothing reaches the device."""

    def __init__(self, store: "ObjectStore", info: CheckpointInfo) -> None:
        self.store = store
        self.info = info
        #: ``(oid, otype, state)`` per object, encoded at the commit
        #: (:meth:`record_payloads`).
        self.staged_records: List[records.Object] = []
        self._payloads: Optional[List[bytes]] = None
        #: Staged content per OID: sorted, disjoint runs (see
        #: :meth:`put_pages`).
        self.staged_runs: Dict[int, Sequence[LocatorRun]] = {}
        #: ``(oid, owner, runs)`` for content staged from a VM object
        #: (see :meth:`put_pages`).
        self.owned: List[Tuple[int, Any, Sequence[LocatorRun]]] = []
        #: Evicted pages' extents the commit adopted: an abort hands them
        #: back to :attr:`ObjectStore.swap_extents`.
        self.adopted: List[Tuple[int, int]] = []
        self.committed = False
        self.aborted = False
        #: Set by :meth:`ObjectStore.commit`: what runs once the flip
        #: lands or an async finalize fails, when an async commit's data
        #: lands and its finalizer, due then, which an abort cancels.
        self.on_complete: Optional[Callable[[CheckpointInfo], None]] = None
        self.on_failure: Optional[Callable[[Exception], None]] = None
        self.data_done = 0
        self.finalizer: Optional[Event] = None
        #: The operation trace open when the transaction began; async
        #: commit finalization re-enters it so the metadata/superblock
        #: IOs are attributed to the checkpoint that issued them.
        self.trace = tracing.current()

    def settle(self) -> None:
        """The transaction landed or aborted: drop its callbacks and
        finalizer, which capture it, so refcounting alone frees it."""
        self.on_complete = self.on_failure = self.finalizer = None

    def put_object(self, oid: int, otype: str, state: Dict[str, Any]) -> None:
        """Stage one serialized object record.  ``state`` is the
        serializer's own: nothing changes it before the commit encodes
        it."""
        self.store.clock.advance(costs.STORE_RECORD_STAGE)
        self.staged_records.append((oid, otype, state))
        self._payloads = None

    def put_pages(self, oid: int, runs: Sequence[LocatorRun],
                  owner: Any = None) -> None:
        """Stage dirty content for a memory/file object: sorted,
        disjoint runs as a VM object holds them — synthetic ``("syn",
        start, count, seed0, step, ...)`` and real pages ``("page",
        pindex, 1, page, ...)`` (see :mod:`repro.kernel.vm.vmobject`) —
        and real pages evicted dirty, ``("ext", ...)`` runs into the
        extents :meth:`ObjectStore.swap_out` wrote.
        Content staged again for the same OID wins over what was staged
        before: it is laid over it with one ``runs.splice``.  ``owner``
        is the VM object ``runs`` were read from, if any: the flip that
        makes the checkpoint durable marks them clean there."""
        if runs:
            staged = self.staged_runs.get(oid)
            self.staged_runs[oid] = splice(staged, runs)[0] if staged \
                else runs
            if owner is not None:
                self.owned.append((oid, owner, runs))

    def record_payloads(self) -> List[bytes]:
        """The record extents' payloads: one :func:`records.encode_objects`
        of each :data:`RECORD_BATCH` slice of the staged records,
        encoded once."""
        if self._payloads is None:
            staged = self.staged_records
            self._payloads = [
                records.encode_objects(staged[start:start + RECORD_BATCH])
                for start in range(0, len(staged), RECORD_BATCH)]
        return self._payloads

    def staged_bytes(self) -> int:
        """Bytes this transaction will write (records + pages)."""
        total = sum(map(len, self.record_payloads()))
        total += PAGE_SIZE * sum(run[2] for runs in self.staged_runs.values()
                                 for run in runs if run[0] != "ext")
        return total


class ObjectStore:
    """One formatted store on a machine's NVMe array."""

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        self.device: StripedArray = machine.storage
        self.clock = machine.clock
        self.loop = machine.loop
        self.alloc = ExtentAllocator(self.device.capacity)
        self.oids = OIDAllocator()
        self.checkpoints: Dict[int, CheckpointInfo] = {}
        self.journals: Dict[int, Journal] = {}
        self._ckpt_counter = 1
        self._generation = 0
        self._catalog_extent: Optional[Tuple[int, int]] = None
        #: The flight-recorder snapshot anchored by the current
        #: superblock (offset, length), when one has been written.
        self._flightrec_extent: Optional[Tuple[int, int]] = None
        #: Highest cluster membership epoch this store has promised
        #: (0 = never participated in an epoch bump).  Durable via the
        #: superblock so fencing survives crash + remount.
        self.cluster_epoch = 0
        self._mounted = False
        #: In-flight async commits by checkpoint id.  Targeted waits
        #: (sls_barrier) key on their finalizers instead of draining the
        #: whole event loop.
        self._pending_commits: Dict[int, CheckpointTxn] = {}
        #: Offset -> length of the extents :meth:`swap_out` wrote that no
        #: commit has adopted yet, kept for the eviction table.
        self.swap_extents: Dict[int, int] = {}
        #: Deterministic retry/backoff for every device command the
        #: store issues; transient device errors never escape it short
        #: of :class:`~repro.errors.RetriesExhausted`.
        self.retry = RetryPolicy(self.clock, seed=0x51, op="store")
        self.stats = telemetry.StatsView(
            "sls.store", keys=("commits", "bytes_flushed", "recoveries",
                               "reclaimed_bytes"))

    # -- lifecycle ------------------------------------------------------------------

    def format(self) -> None:
        """Initialize an empty store (destroys existing content)."""
        self.alloc = ExtentAllocator(self.device.capacity)
        self.oids = OIDAllocator()
        self.checkpoints = {}
        self.journals = {}
        self._ckpt_counter = 1
        self._generation = 0
        self._catalog_extent = None
        self._flightrec_extent = None
        self.cluster_epoch = 0
        self.swap_extents = {}
        with Flip(self) as flip:
            self._write_catalog_and_superblock(flip)
        self._mounted = True

    def mount(self) -> bool:
        """Recover the store from the device.

        Returns True when an existing store was found (and its last
        complete checkpoints recovered, its free list derived from what
        they and the superblock own); False when the array is blank and
        :meth:`format` is required.
        """
        state = recovery_mod.recover(self)
        if state is None:
            return False
        self._mounted = True
        self.stats["recoveries"] += 1
        return True

    @property
    def generation(self) -> int:
        """The superblock generation: it moves with every flip that
        lands, and only then."""
        return self._generation

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise StoreError("store is not mounted (format() or mount())")

    def owned_extents(self) -> List[Tuple[int, int]]:
        """``(offset, length)`` of every extent an owner holds: the
        checkpoints and in-flight commits (data, records, metadata), the
        journals, the superblock's catalog and flight record, and the
        evicted pages no commit has adopted (:attr:`swap_extents`)."""
        owned = [*self.swap_extents.items(),
                 *((journal.base, journal.capacity)
                   for journal in self.journals.values())]
        owned += filter(None, (self._catalog_extent, self._flightrec_extent))
        for info in (*self.checkpoints.values(),
                     *(txn.info for txn in self._pending_commits.values())):
            owned += info.owned_extents
            if info.meta_extent is not None:
                owned.append(info.meta_extent)
        return owned

    # -- OIDs --------------------------------------------------------------------------

    def alloc_oid(self, obj_class: int) -> int:
        """Allocate a 64-bit on-disk object id of the given class."""
        self._require_mounted()
        return self.oids.allocate(obj_class)

    # -- checkpoint creation ----------------------------------------------------------------

    def begin_checkpoint(self, group_id: int, name: str = "",
                         parent: Optional[int] = None,
                         partial: bool = False) -> CheckpointTxn:
        """Open a checkpoint transaction (delta against ``parent``)."""
        self._require_mounted()
        info = CheckpointInfo(self._ckpt_counter, group_id, name=name,
                              parent=parent, time_ns=self.clock.now(),
                              partial=partial)
        self._ckpt_counter += 1
        return CheckpointTxn(self, info)

    def _pack_pages(self, txn: CheckpointTxn) -> Iterator[Run]:
        """Pack staged pages into stripe-sized extents: yields each
        run's ``(offset, count, payload)`` write, allocated just before.

        Real-byte pages are packed (realized) into extent payloads; an
        object's synthetic pages are one run of synthetic stripes, with
        their seeds carried in the checkpoint metadata.  Each
        object's staged runs are walked once, in index order; every
        synthetic run joins the locator table through
        ``append_locator_run``, which coalesces exactly as appending its
        pages one at a time would.  What follows a ``yield`` runs once
        that write is queued.
        """
        info = txn.info
        planned = self.device.fault_plan is not None
        # Real-byte pages are packed across object boundaries: each
        # stripe-sized payload may carry the tail pages of one object
        # and the head of the next, so a checkpoint's partial stripes
        # coalesce into one staged write instead of one per object.
        real_batch: List[Page] = []
        #: "ext" runs whose pages sit in ``real_batch``, with the batch
        #: slot of their first page; the extent is known at the flush.
        batch_runs: List[Tuple[List[Any], int]] = []

        def flush_real() -> Iterator[Run]:
            nonlocal real_batch, batch_runs
            if not real_batch:
                return
            payload = b"".join(page.realize() for page in real_batch)
            extent = self.alloc.alloc(len(payload))
            # Ownership is recorded before the write so an abort
            # after a failed write still frees this extent.
            info.owned_extents.append((extent, len(payload)))
            yield extent, 1, payload
            info.data_bytes += len(payload)
            for run, slot in batch_runs:
                run[3], run[4] = extent, slot * PAGE_SIZE
            real_batch, batch_runs = [], []

        for oid, staged in txn.staged_runs.items():
            # The locator table is built as runs while the content is
            # walked in index order — the shape the metadata document
            # stores and every reader consumes.  The table wraps the
            # list being appended to; it is complete (every pending
            # "ext" run filled in) when the walk ends.
            runs: List[Any] = []
            info.pages[oid] = PageRuns(runs)
            synthetic = 0
            for run in staged:
                if run[0] == "syn":
                    append_locator_run(runs, run)
                    synthetic += run[2]
                    continue
                if run[0] == "ext":
                    # Evicted dirty, so already written: its extent is
                    # adopted by reference (GC's rule), not rewritten.
                    append_locator_run(runs, run[:6])
                    length = self.swap_extents.pop(run[3], None)
                    if length is not None:
                        info.owned_extents.append((run[3], length))
                        txn.adopted.append((run[3], length))
                    continue
                pindex, page = run[1], run[3]
                last = runs[-1] if runs else None
                if (batch_runs and last is batch_runs[-1][0]
                        and last[1] + last[2] == pindex):
                    last[2] += 1    # next slot of the same batch
                else:
                    runs.append(["ext", pindex, 1, None, None, PAGE_SIZE])
                    batch_runs.append((runs[-1], len(real_batch)))
                real_batch.append(page)
                if len(real_batch) * PAGE_SIZE >= STRIPE_SIZE:
                    yield from flush_real()

            # Synthetic pages: virtual bytes, one run (one stripe each
            # under a fault plan: a fault stops allocation at its command).
            remaining = PAGE_SIZE * synthetic
            while remaining > 0:
                chunk = min(remaining, STRIPE_SIZE)
                payload = synthetic_payload(seed=oid, length=chunk)
                for extent, count in self.alloc.alloc_run(
                        chunk, 1 if planned else remaining // chunk):
                    info.owned_extents.extend(zip(
                        range(extent, extent + count * chunk, chunk),
                        itertools.repeat(chunk)))
                    yield extent, count, payload
                    info.data_bytes += count * chunk
                    remaining -= count * chunk
        yield from flush_real()

    def _write_records(self, txn: CheckpointTxn) -> Iterator[Run]:
        """Stage object records into extents: yields each extent's
        ``(offset, 1, payload)`` write, allocated just before.

        Each :data:`RECORD_BATCH` slice of the staged records is one
        extent (one allocation + one write), its payload one table per
        record shape (:func:`records.encode_objects`) and one entry of
        the checkpoint's record index, the slice's OIDs in staged order.
        """
        info = txn.info
        staged = txn.staged_records
        for start, payload in zip(range(0, len(staged), RECORD_BATCH),
                                  txn.record_payloads()):
            extent = self.alloc.alloc(len(payload))
            info.owned_extents.append((extent, len(payload)))
            yield extent, 1, payload
            info.object_records.entries.append(RecordEntry(
                (extent, len(payload)),
                [item[0] for item in staged[start:start + RECORD_BATCH]]))

    def _finalize_commit(self, txn: CheckpointTxn,
                         keep: Optional[int]) -> None:
        """Data is durable: write meta + catalog, flip the superblock."""
        with tracing.use(txn.trace):
            with telemetry.registry().span(self.clock, "store.finalize",
                                           group=txn.info.group_id):
                self._finalize_commit_inner(txn, keep)
            if txn.trace is not None:
                # The superblock flip landed: the checkpoint trace
                # reached its durable point.  A crash before here
                # leaves the trace incomplete.
                txn.trace.complete = True
            events.emit(self.clock.now(), events.CKPT_COMMIT,
                        group=txn.info.group_id, ckpt=txn.info.ckpt_id,
                        bytes=txn.info.data_bytes)

    def _finalize_commit_inner(self, txn: CheckpointTxn,
                               keep: Optional[int]) -> None:
        """One transaction: the checkpoint and the deletes of its
        group's victims past ``keep`` (oldest first) are staged, and one
        flip writes its metadata and each surviving adopter's, once
        each, adds it and drops them.  A flip that fails short of a
        crash sheds its newest victim and flips again, down to the
        commit alone: a trim never costs its commit
        (:meth:`_stage_and_flip`)."""
        info = txn.info
        with Flip(self) as flip:
            # A flip that never lands leaves the checkpoint uncommitted.
            flip.save(info, "complete")
            flip.rewrite.append(info)
            info.complete = True
            self._pending_commits.pop(info.ckpt_id, None)
            self.checkpoints[info.ckpt_id] = info
            # Chain depth at commit time, before the trim it bounds.  An
            # ancestor may still be an in-flight async commit, not yet
            # in the table: the walk stops there.
            depth = len(chain_of(self.checkpoints, info.ckpt_id))
            self._stage_and_flip(flip, self.checkpoints_for(
                info.group_id, include_partial=True)[:-keep] if keep else [],
                pending={"group": info.group_id, "ckpt": info.ckpt_id,
                         "name": info.name or "", "bytes": info.data_bytes})
        # Only after the flip: the content staged from VM objects is
        # durable, so it is clean there (§6: evicted without IO).
        for oid, owner, runs in txn.owned:
            owner.mark_clean(runs, info.pages[oid])
        self.stats["commits"] += 1
        self.stats["bytes_flushed"] += info.data_bytes
        telemetry.registry().histogram(
            "sls.store.chain_depth", group=info.group_id).observe(depth)
        on_complete = txn.on_complete
        txn.settle()
        if on_complete is not None:
            on_complete(info)

    def commit(self, txn: CheckpointTxn, sync: bool = False,
               on_complete: Optional[Callable[[CheckpointInfo], None]] = None,
               on_failure: Optional[Callable[[Exception], None]] = None,
               keep: Optional[int] = None) -> CheckpointInfo:
        """Commit a checkpoint transaction.

        ``sync=False`` (the continuous-checkpoint path) returns as soon
        as the writes are queued; the commit finalizes via the event
        loop when the data lands, and ``on_complete`` fires then.
        ``sync=True`` advances the clock to durability before
        returning (sls_checkpoint + sls_barrier semantics).  With
        ``keep`` (the group's history limit) the same flip trims the
        group to its ``keep`` newest checkpoints.

        A storage failure that survives the retry policy aborts the
        transaction — every allocated extent is released and queued
        writes cancelled — before the error propagates (sync) or
        ``on_failure`` fires (async).  Injected power failures are the
        exception: the host is dying, so nothing is cleaned up.
        """
        self._require_mounted()
        if txn.committed:
            raise InvalidArgument("transaction already committed")
        txn.committed = True
        txn.on_complete, txn.on_failure = on_complete, on_failure
        submitted = self.clock.now()
        try:
            # One batch: each run is queued as its extents are
            # allocated, each command charged its allocation.
            data_done = self.device.submit_writes(
                itertools.chain(self._pack_pages(txn),
                                self._write_records(txn)),
                self.retry, "store.flush", gap=costs.STORE_ALLOC_EXTENT)
            telemetry.registry().record_span("store.flush", submitted,
                                             data_done,
                                             group=txn.info.group_id)
            if sync:
                self.clock.advance_to(data_done)
                self.device.poll()
                self._finalize_commit(txn, keep)
            else:
                self._pending_commits[txn.info.ckpt_id] = txn
                txn.data_done = data_done
                txn.finalizer = self.loop.call_at(
                    data_done, lambda: self._finalize_async(txn, keep))
        except (InjectedCrash, MachineCrashed):
            raise
        except ReproError:
            self.abort_checkpoint(txn)
            raise
        return txn.info

    def _finalize_async(self, txn: CheckpointTxn, keep: Optional[int]) -> None:
        """Event-loop finalizer: failures abort instead of unwinding
        into whoever happens to be driving the loop."""
        try:
            self._finalize_commit(txn, keep)
        except (InjectedCrash, MachineCrashed):
            raise
        except ReproError as exc:
            on_failure = txn.on_failure
            self.abort_checkpoint(txn)
            if on_failure is not None:
                on_failure(exc)

    def abort_checkpoint(self, txn: CheckpointTxn) -> int:
        """Roll back a failed checkpoint transaction.

        Cancels its async finalizer (an aborted commit never flips),
        frees every extent it allocated, cancels its writes still
        sitting in device queues and discards anything that already
        landed — blockalloc accounting returns exactly to its
        pre-checkpoint state (the no-leaked-blocks regression test
        asserts this).  Returns the number of bytes released: none for
        a transaction never committed or already aborted.
        """
        info = txn.info
        if info.complete:
            raise InvalidArgument(
                f"checkpoint {info.ckpt_id} already committed")
        if txn.aborted or not txn.committed:
            return 0
        txn.aborted = True
        if txn.finalizer is not None:
            txn.finalizer.cancel()
        txn.settle()
        released = 0
        adopted = dict(txn.adopted)
        for offset, length in info.owned_extents:
            if offset in adopted:
                # An evicted page's extent: the store keeps it for the
                # eviction table again.
                self.swap_extents[offset] = length
                continue
            self.device.cancel_extent(offset)
            self.device.discard_extent(offset)
            self.alloc.free(offset, length)
            released += length
        info.owned_extents = []
        info.object_records = RecordIndex()
        info.pages = {}
        info.data_bytes = 0
        self._pending_commits.pop(info.ckpt_id, None)
        events.emit(self.clock.now(), events.CKPT_ABORT,
                    group=info.group_id, ckpt=info.ckpt_id,
                    released_bytes=released)
        return released

    def pending_commit_deadline(self, group_id: Optional[int] = None
                                ) -> Optional[int]:
        """Earliest finalize time among in-flight async commits.

        With ``group_id``, only that group's commits are considered —
        the key to waiting out one group's flush without draining
        every other group's (or spinning on periodic timers).
        """
        deadlines = [txn.data_done for txn in self._pending_commits.values()
                     if group_id is None or txn.info.group_id == group_id]
        return min(deadlines) if deadlines else None

    # -- catalog / superblock ------------------------------------------------------------

    def _write_catalog_and_superblock(
            self, flip: Flip,
            pending: Optional[Dict[str, Any]] = None) -> None:
        """Write one metadata record for each checkpoint on
        ``flip.rewrite`` still in the catalog (in marking order), a new
        catalog, and flip the superblock to it — the one place a
        metadata record is written or a superblock flipped, ending
        ``flip``'s transaction.

        A rewritten checkpoint's previous record joins ``flip.release``,
        what this flip unreferences.  The superblock still on media can
        reach it, so it is discarded and goes back to the allocator only
        once the flip has landed (no allocation of this flip can land on
        it), as the superseded catalog and flight record do.  The free
        list is not written: a mount derives it from the owners
        (:meth:`ExtentAllocator.derive`).  A failure at any step
        before the superblock write lands rolls ``flip`` back, this
        flip's records, catalog and flight record included, so the next
        flip goes to the right slot and nothing leaks.

        The catalog is one entry per complete checkpoint, each encoded
        once per metadata extent (:meth:`CheckpointInfo.catalog_entry`).
        """
        for info in dict.fromkeys(flip.rewrite):
            if info.ckpt_id not in self.checkpoints:
                continue
            payload = records.encode(records.REC_CKPT_META,
                                     info.encode_meta())
            extent = self.alloc.alloc(len(payload))
            flip.undo.append(functools.partial(self.device.discard_extent,
                                               extent))
            self.retry.run(lambda: self.device.write(extent, payload),
                           op="store.meta")
            flip.save(info, "meta_extent")
            if info.meta_extent is not None:
                flip.release.append(info.meta_extent)
            info.meta_extent = (extent, len(payload))
        generation = self._generation + 1
        catalog = records.encode(records.REC_CATALOG, {"checkpoints": {
            str(ckpt_id): info.catalog_entry()
            for ckpt_id, info in self.checkpoints.items() if info.complete}})
        catalog_at = self.alloc.alloc(len(catalog))
        flip.undo.append(functools.partial(self.device.discard_extent,
                                           catalog_at))
        self.retry.run(lambda: self.device.write(catalog_at, catalog),
                       op="store.catalog")
        # The flight recorder rides every flip: a fixed-size snapshot of
        # the telemetry surfaces, placed at zero simulated cost and
        # anchored by the superblock about to be written — durable
        # exactly when the commit is.  Fixed size keeps the allocator
        # and the superblock length identical whether telemetry is
        # enabled or not (timing-identity invariant).  The
        # flip only captures the record; the device builds its bytes on
        # first read.
        record = flightrec.encode_snapshot(self, pending=pending,
                                           generation=generation)
        record_at = self.alloc.alloc(len(record))
        flip.undo.append(functools.partial(self.device.discard_extent,
                                           record_at))
        self.device.place_extent(record_at, record)
        superblock_body: Dict[str, Any] = {
            "generation": generation,
            "catalog_extent": [catalog_at, len(catalog)],
            "flightrec": [record_at, len(record)],
            "alloc_cursor": self.alloc.cursor,
            "oid_cursor": self.oids.cursor,
            "ckpt_counter": self._ckpt_counter,
            "journal_dir": {str(jid): journal.encode_meta()
                            for jid, journal in self.journals.items()},
        }
        # Written only once the store has joined a cluster epoch, so
        # single-machine stores keep a byte-identical superblock (the
        # timing-identity invariant again).
        if self.cluster_epoch:
            superblock_body["cluster_epoch"] = self.cluster_epoch
        superblock = records.encode(records.REC_SUPERBLOCK, superblock_body)
        slot = SUPERBLOCK_SLOTS[generation % 2]
        self.clock.advance(costs.STORE_COMMIT)
        self.retry.run(lambda: self.device.write(slot, superblock),
                       op="store.superblock")
        old_catalog, old_flightrec = self._catalog_extent, \
            self._flightrec_extent
        self._generation = generation
        self._catalog_extent = (catalog_at, len(catalog))
        self._flightrec_extent = (record_at, len(record))
        for offset, length in flip.release:
            self.device.discard_extent(offset)
            self.alloc.free(offset, length)
        if old_catalog is not None:
            self.alloc.free(*old_catalog)
        if old_flightrec is not None:
            # Freed but not discarded: the previous superblock slot
            # still anchors it until the next flip overwrites the slot.
            self.alloc.free(*old_flightrec)
        for action in flip.landed:
            action()

    def promise_cluster_epoch(self, epoch: int) -> None:
        """Durably promise a cluster membership epoch: once the
        superblock flip lands, this store fences any manifest carrying
        an older epoch — across crash and remount.  Promises are
        monotonic; an older epoch is a no-op."""
        if epoch <= self.cluster_epoch:
            return
        with Flip(self) as flip:
            flip.save(self, "cluster_epoch")
            self.cluster_epoch = epoch
            self._write_catalog_and_superblock(flip)

    # -- reading back -----------------------------------------------------------------------

    def get_checkpoint(self, ckpt_id: int) -> CheckpointInfo:
        """Checkpoint metadata by id (NoSuchCheckpoint otherwise)."""
        try:
            return self.checkpoints[ckpt_id]
        except KeyError:
            raise NoSuchCheckpoint(f"checkpoint {ckpt_id}")

    def checkpoints_for(self, group_id: int,
                        include_partial: bool = False) -> List[CheckpointInfo]:
        """A group's complete checkpoints, oldest first."""
        return [info for info in sorted(self.checkpoints.values(),
                                        key=lambda i: i.ckpt_id)
                if info.group_id == group_id and info.complete
                and (include_partial or not info.partial)]

    def find_latest_complete(self, group_id: int) -> Optional[CheckpointInfo]:
        """The group's newest complete full checkpoint, if any."""
        chain = self.checkpoints_for(group_id)
        return chain[-1] if chain else None

    def parent_chain(self, ckpt_id: int) -> List[CheckpointInfo]:
        """The checkpoint and its ancestors, newest first
        (:func:`~repro.objstore.checkpoint.chain_of`);
        NoSuchCheckpoint when it or an ancestor is missing."""
        chain = chain_of(self.checkpoints, ckpt_id)
        missing = chain[-1].parent if chain else ckpt_id
        if missing is not None:
            raise NoSuchCheckpoint(f"checkpoint {missing}")
        return chain

    def effective_live_oids(self, ckpt_id: int) -> Optional[Set[int]]:
        """The OIDs a restore at ``ckpt_id`` may still need
        (:func:`~repro.objstore.checkpoint.live_set` of its chain);
        None when the chain carries no liveness info."""
        return live_set(self.parent_chain(ckpt_id))

    def merged_view(self, ckpt_id: int) -> Tuple[Dict[int, Tuple[int, int]],
                                                 Dict[int, PageRuns]]:
        """Newest-wins union of deltas along the parent chain.

        Returns ``(object_record_extents, page_locators)`` describing
        the full application state at ``ckpt_id``.  With incremental
        checkpoints an unchanged object's record lives in an ancestor
        delta; a *deleted* object's record may also still sit in an
        ancestor, so the union is filtered down to the checkpoint's
        effective live set (when known) to keep dead objects from
        resurfacing at restore.
        """
        live = self.effective_live_oids(ckpt_id)
        merged_records: Dict[int, Tuple[int, int]] = {}
        merged_pages: Dict[int, PageRuns] = {}
        for info in self.parent_chain(ckpt_id):
            for oid, extent in info.object_records.items():
                if live is not None and oid not in live:
                    continue
                merged_records.setdefault(oid, extent)
            overlay_page_maps(merged_pages, info.pages, keep=live)
        return merged_records, merged_pages

    def _decode_record(self, oid: int, payload: Any) -> Tuple[str, Any]:
        if not isinstance(payload, bytes):
            raise CorruptRecord("record extent holds synthetic data")
        for r_oid, otype, state in records.decode_objects(payload, (oid,)):
            if r_oid == oid:
                return otype, state
        raise CorruptRecord(f"record OID mismatch for {oid}")

    def record_fallbacks(self, ckpt_id: int,
                         primary: Dict[int, Tuple[int, int]]
                         ) -> Dict[int, List[Tuple[int, int]]]:
        """Older record extents per OID along the parent chain.

        The read path uses these as redundancy: when the newest copy
        of a record fails its checksum, an ancestor delta's copy of
        the same object (stale but internally consistent) can stand
        in — the parent-checkpoint analogue of ZFS's ditto blocks.
        """
        fallbacks: Dict[int, List[Tuple[int, int]]] = {}
        for info in self.parent_chain(ckpt_id):
            for oid, extent in info.object_records.items():
                newest = primary.get(oid)
                if newest is None or tuple(extent) == tuple(newest):
                    continue
                fallbacks.setdefault(oid, []).append(extent)
        return fallbacks

    def _read_record_resilient(self, oid: int, extent: Tuple[int, int],
                               fallbacks: Dict[int, List[Tuple[int, int]]]
                               ) -> Tuple[Tuple[str, Any], int]:
        """Checksum-mismatch recovery: re-read the primary, then fall
        back to ancestor copies, newest first."""
        candidates = [extent] + fallbacks.get(oid, [])
        last_done = self.clock.now()
        last_error: Optional[CorruptRecord] = None
        for rank, candidate in enumerate(candidates):
            cand_off = candidate[0]
            try:
                payload, done = self.retry.run(
                    lambda: self.device.read_async(cand_off),
                    op="store.read")
                last_done = max(last_done, done)
                value = self._decode_record(oid, payload)
            except CorruptRecord as exc:
                last_error = exc
                continue
            events.emit(self.clock.now(), events.READ_FALLBACK,
                        oid=oid, extent=cand_off,
                        source="reread" if rank == 0 else "parent")
            return value, last_done
        assert last_error is not None
        raise last_error

    def read_object_records(self, extents: Dict[int, Tuple[int, int]],
                            fallbacks: Optional[Dict[int, List[Tuple[int, int]]]] = None
                            ) -> Dict[int, Tuple[str, Any]]:
        """Batched record reads: all dispatched at once, one wait.

        Restores issue every record read in parallel (queue depth ≫ 1)
        so the per-command latency overlaps instead of serializing.
        With ``fallbacks`` (see :meth:`record_fallbacks`), a record
        that fails validation is re-read and then recovered from an
        ancestor copy instead of failing the whole restore.
        """
        decoded: Dict[int, Tuple[str, Any]] = {}
        last_done = self.clock.now()
        # Batched staging means many OIDs share one record extent:
        # read each distinct extent once and decode only the records
        # of the OIDs wanted from it.
        by_offset: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for oid, extent in extents.items():
            by_offset.setdefault(extent[0], {})[oid] = extent
        for offset, wanted in by_offset.items():
            try:
                payload, done = self.retry.run(
                    lambda: self.device.read_async(offset),
                    op="store.read")
                last_done = max(last_done, done)
                if not isinstance(payload, bytes):
                    raise CorruptRecord(
                        "record extent holds synthetic data")
                entries = {r_oid: (otype, state) for r_oid, otype, state
                           in records.decode_objects(payload, wanted)}
                for oid in wanted:
                    if oid not in entries:
                        raise CorruptRecord(
                            f"record OID mismatch for {oid}")
                for oid in wanted:
                    decoded[oid] = entries[oid]
            except CorruptRecord:
                if fallbacks is None:
                    raise
                for oid, extent in wanted.items():
                    decoded[oid], done = self._read_record_resilient(
                        oid, extent, fallbacks)
                    last_done = max(last_done, done)
        self.clock.advance_to(last_done)
        return decoded

    def fetch_page(self, run: LocatorRun) -> Page:
        """The page a one-page locator run names: :meth:`fetch_pages` of
        that run (one read for an ``"ext"`` run, none for ``"syn"``)."""
        return self.fetch_pages((run,))[0]

    def fetch_pages(self, runs: Iterable[LocatorRun]) -> List[Page]:
        """Every page of the locator ``runs``, in order: the store's one
        page reader.

        Each distinct extent is read once, every read is dispatched
        before any is waited for, and the clock advances once to the
        last completion — the queue-depth model
        :meth:`read_object_records` uses for records.
        """
        payloads: Dict[int, Any] = {}
        last_done = self.clock.now()
        pages: List[Page] = []
        for run in runs:
            count = run[2]
            if run[0] == "syn":
                seed0, step = run[3], run[4]
                pages += (Page(seed=seed0 + step * i) for i in range(count))
                continue
            extent, off0, length = run[3], run[4], run[5]
            if extent not in payloads:
                payloads[extent], done = self.retry.run(
                    lambda: self.device.read_async(extent),
                    op="store.read")
                last_done = max(last_done, done)
            payload = payloads[extent]
            if not isinstance(payload, bytes):
                raise CorruptRecord("page extent holds synthetic data")
            pages += [Page(data=payload[off0 + length * i:
                                        off0 + length * (i + 1)])
                      for i in range(count)]
        self.clock.advance_to(last_done)
        return pages

    # -- garbage collection ---------------------------------------------------------------------

    def delete_checkpoint(self, ckpt_id: int) -> int:
        """WAFL-style snapshot deletion; returns bytes reclaimed."""
        return self._delete([self.get_checkpoint(ckpt_id)])

    def truncate_checkpoint(self, ckpt_id: int) -> int:
        """Delete a childless checkpoint from the new end of its
        chain (quorum recovery's tail truncation); returns bytes
        reclaimed."""
        return self._delete([self.get_checkpoint(ckpt_id)], truncate=True)

    def retain_last(self, group_id: int, keep: int) -> int:
        """Trim a group's history to its ``keep`` newest checkpoints in
        one flip; returns bytes reclaimed."""
        if keep < 1:
            raise InvalidArgument(f"bad history limit {keep}")
        return self._delete(self.checkpoints_for(
            group_id, include_partial=True)[:-keep])

    def _delete(self, victims: Sequence[CheckpointInfo],
                truncate: bool = False) -> int:
        """A trim with no new checkpoint, one GC trace unless it
        truncates: flips of what :meth:`_stage_and_flip` keeps of
        ``victims`` until none is left, so an error surfaces only when
        not one victim can flip.  Returns bytes reclaimed."""
        self._require_mounted()
        if not victims:
            return 0
        head = victims[0]
        before = self.stats["reclaimed_bytes"]
        with (contextlib.nullcontext() if truncate else tracing.trace(
                self.clock, tracing.GC, group=head.group_id,
                ckpt=head.ckpt_id)) as trace_obj:
            while victims:
                with Flip(self) as flip:
                    done = self._stage_and_flip(flip, victims, truncate)
                victims = victims[done:]
            if trace_obj is not None:
                trace_obj.complete = True
        return self.stats["reclaimed_bytes"] - before

    def _stage_and_flip(self, flip: Flip, victims: Sequence[CheckpointInfo],
                        truncate: bool = False,
                        pending: Optional[Dict[str, Any]] = None) -> int:
        """Stage ``victims``' deletes into ``flip`` oldest first (each is
        a chain head once those before it are gone), which does no IO,
        and flip it with the checkpoint ``pending`` names if any.  Any
        failure short of a crash before the superblock lands takes back
        the newest staged victim and flips again, down to the commit
        alone or, with no new checkpoint, one victim; past that it
        propagates.  Returns how many victims flipped."""
        marks = []
        for victim in victims:
            marks.append(flip.savepoint())
            gc_mod.delete_checkpoint(self, victim.ckpt_id, flip, truncate)
        # The least a flip may keep: the commit alone, else one victim.
        least = 0 if pending is not None else 1
        while True:
            try:
                self._write_catalog_and_superblock(flip, pending)
                return len(marks)
            except ReproError as exc:
                if len(marks) <= least or isinstance(
                        exc, (InjectedCrash, MachineCrashed)):
                    raise
                flip.rollback(marks.pop())

    # -- journals -------------------------------------------------------------------------------------

    def journal_create(self, capacity: int) -> Journal:
        """Preallocate a non-COW journal region (sync, small)."""
        self._require_mounted()
        jid = self.alloc_oid(CLASS_JOURNAL)
        with Flip(self) as flip:
            base = self.alloc.alloc(capacity)
            journal = Journal(self, jid, base, capacity)
            self.journals[jid] = journal
            flip.undo += [functools.partial(self.journals.pop, jid),
                          functools.partial(self.device.discard_extent, base)]
            journal._write_header()
            # Journal existence must survive a crash: flip the superblock.
            self._write_catalog_and_superblock(flip)
        return journal

    def journal(self, jid: int) -> Journal:
        """An existing journal by id (NoSuchObject otherwise)."""
        try:
            return self.journals[jid]
        except KeyError:
            raise NoSuchObject(f"journal {jid}")

    # -- evicted pages -------------------------------------------------------------------------------

    def swap_out(self, pages: Sequence[Tuple[Any, Page]]
                 ) -> List[Tuple[int, int]]:
        """Write the real pages a pageout pass evicts dirty, ``(owner,
        page)`` pairs with each owner's together, in one batch and wait
        for it; returns each page's ``(extent, byte offset)``.  Each
        owner's pages get stripe-sized extents of their own, kept in
        :attr:`swap_extents` until a commit adopts them; a failed batch
        frees them."""
        placed: List[Tuple[int, int]] = []
        slots: List[Tuple[int, int]] = []
        per_extent = STRIPE_SIZE // PAGE_SIZE

        def writes() -> Iterator[Run]:
            for _owner, owned in itertools.groupby(pages, key=itemgetter(0)):
                chunk = [page for _owner, page in owned]
                for first in range(0, len(chunk), per_extent):
                    batch = chunk[first:first + per_extent]
                    payload = b"".join(page.realize() for page in batch)
                    extent = self.alloc.alloc(len(payload))
                    placed.append((extent, len(payload)))
                    slots.extend((extent, slot * PAGE_SIZE)
                                 for slot in range(len(batch)))
                    yield extent, 1, payload

        try:
            done = self.device.submit_writes(writes(), self.retry,
                                             "store.swap",
                                             gap=costs.STORE_ALLOC_EXTENT)
        except (InjectedCrash, MachineCrashed):
            raise
        except ReproError:
            for offset, length in placed:
                self.device.cancel_extent(offset)
                self.device.discard_extent(offset)
                self.alloc.free(offset, length)
            raise
        self.clock.advance_to(done)
        self.device.poll()
        self.swap_extents.update(placed)
        return slots

    def release_swap(self, held: Set[int]) -> None:
        """Free the :attr:`swap_extents` not in ``held`` (the extents
        the eviction table's dirty runs still point into): their pages
        were paged back in, written over or freed with their object."""
        for offset in [offset for offset in self.swap_extents
                       if offset not in held]:
            self.device.discard_extent(offset)
            self.alloc.free(offset, self.swap_extents.pop(offset))

    # -- stats ------------------------------------------------------------------------------------------------

    def used_bytes(self) -> int:
        """Live bytes allocated on the array."""
        return self.alloc.used_bytes()

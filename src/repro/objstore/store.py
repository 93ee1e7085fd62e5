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
   the crash tests hammer on.

Incremental state: each checkpoint stores a delta; the restorable view
is the newest-wins merge along the parent chain
(:meth:`ObjectStore.merged_view`).
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..core import costs, events, flightrec, telemetry, tracing
from ..core.faults import InjectedCrash
from ..core.resilience import RetryPolicy
from ..core.runs import synthetic_runs
from ..errors import (CorruptRecord, InvalidArgument, MachineCrashed,
                      NoSuchCheckpoint, NoSuchObject, ReproError,
                      StoreError)
from ..hw.memory import SYNTHETIC_CLEAN, Page
from ..hw.nvme import StripedArray, synthetic_payload
from ..units import PAGE_SIZE, STRIPE_SIZE
from . import records
from .blockalloc import ExtentAllocator
from .checkpoint import (CheckpointInfo, PageLocator, PageRuns,
                         overlay_page_maps, run_locators)
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


class CheckpointTxn:
    """Staging area for one in-progress checkpoint."""

    def __init__(self, store: "ObjectStore", info: CheckpointInfo) -> None:
        self.store = store
        self.info = info
        self.staged_records: List[Tuple[int, bytes]] = []
        self.staged_pages: Dict[int, Dict[int, Page]] = {}
        self.committed = False
        self.aborted = False
        #: The operation trace open when the transaction began; async
        #: commit finalization re-enters it so the metadata/superblock
        #: IOs are attributed to the checkpoint that issued them.
        self.trace = tracing.current()

    def put_object(self, oid: int, otype: str, state: Any) -> None:
        """Stage one serialized object record."""
        self.store.clock.advance(costs.STORE_RECORD_STAGE)
        self.staged_records.append(
            (oid, records.encode_object(oid, otype, state)))

    def put_pages(self, oid: int, pages: Dict[int, Page]) -> None:
        """Stage dirty pages for a memory/file object."""
        if not pages:
            return
        self.staged_pages.setdefault(oid, {}).update(pages)

    def staged_bytes(self) -> int:
        """Bytes this transaction will write (records + pages)."""
        total = sum(len(data) for _oid, data in self.staged_records)
        total += sum(len(pages) * PAGE_SIZE
                     for pages in self.staged_pages.values())
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
        #: Extent offset -> number of checkpoint deltas referencing it.
        self.extent_refs: Dict[int, int] = {}
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
        #: Pending async commits: ckpt_id -> callbacks.
        self._commit_watchers: Dict[int, List[Callable[[CheckpointInfo], None]]] = {}
        #: In-flight async commits: ckpt_id -> (group_id, finalize time).
        #: Targeted waits (sls_barrier) key on these instead of
        #: draining the whole event loop.
        self._pending_commits: Dict[int, Tuple[int, int]] = {}
        #: Async-commit failure callbacks: ckpt_id -> callbacks(exc).
        self._commit_failures: Dict[int, List[Callable[[Exception], None]]] = {}
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
        self.extent_refs = {}
        self._ckpt_counter = 1
        self._generation = 0
        self._catalog_extent = None
        self._flightrec_extent = None
        self.cluster_epoch = 0
        self._write_catalog_and_superblock()
        self._mounted = True

    def mount(self) -> bool:
        """Recover the store from the device.

        Returns True when an existing store was found (and its last
        complete checkpoints recovered); False when the array is blank
        and :meth:`format` is required.
        """
        state = recovery_mod.recover(self)
        if state is None:
            return False
        self._mounted = True
        self.stats["recoveries"] += 1
        return True

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise StoreError("store is not mounted (format() or mount())")

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

    def _pack_pages(self, txn: CheckpointTxn) -> int:
        """Write staged pages into stripe-sized extents.

        Returns the latest completion time among the submitted writes.
        Real-byte pages are packed (realized) into extent payloads;
        synthetic pages are charged as synthetic extents of equal size
        with their seeds carried in the checkpoint metadata.
        """
        info = txn.info
        last_done = self.clock.now()
        # Real-byte pages are packed across object boundaries: each
        # stripe-sized payload may carry the tail pages of one object
        # and the head of the next, so a checkpoint's partial stripes
        # coalesce into one staged write instead of one per object.
        real_batch: List[Page] = []
        #: "ext" runs whose pages sit in ``real_batch``, with the batch
        #: slot of their first page; the extent is known at the flush.
        batch_runs: List[Tuple[List[Any], int]] = []

        def flush_real() -> None:
            nonlocal last_done, real_batch, batch_runs
            if not real_batch:
                return
            payload = b"".join(page.realize() for page in real_batch)
            extent = self.alloc.alloc(len(payload))
            # Ownership is recorded before the submit so an abort
            # after a failed write still frees this extent.
            info.owned_extents.append((extent, len(payload)))
            self.clock.advance(costs.STORE_ALLOC_EXTENT)
            done = self.retry.run(
                lambda: self.device.submit_write(extent, payload),
                op="store.flush")
            last_done = max(last_done, done)
            info.data_bytes += len(payload)
            for run, slot in batch_runs:
                run[3], run[4] = extent, slot * PAGE_SIZE
            real_batch, batch_runs = [], []

        for oid, pages in txn.staged_pages.items():
            # The locator table is built as runs while the pages are
            # walked in index order — the shape the metadata document
            # stores and every reader consumes.  The table wraps the
            # list being appended to; it is complete (every pending
            # "ext" run filled in) when this function returns.
            ordered = sorted(pages)
            seeds: List[Any] = [pages[pindex].seed for pindex in ordered]
            runs: List[Any] = []
            info.pages[oid] = PageRuns(runs)
            # The real pages split the two columns into synthetic
            # stretches, each coalesced by ``synthetic_runs``.  A real
            # page ends any "syn" run, so a stretch's runs are appended
            # as they are — what one ``append_locator_run`` per page
            # builds.
            real_at = [at for at, seed in enumerate(seeds) if seed is None]
            lo = 0
            for at in real_at:
                if lo < at:
                    runs += synthetic_runs(ordered[lo:at], seeds[lo:at])
                lo = at + 1
                pindex = ordered[at]
                last = runs[-1] if runs else None
                if (batch_runs and last is batch_runs[-1][0]
                        and last[1] + last[2] == pindex):
                    last[2] += 1    # next slot of the same batch
                else:
                    runs.append(["ext", pindex, 1, None, None, PAGE_SIZE])
                    batch_runs.append((runs[-1], len(real_batch)))
                real_batch.append(pages[pindex])
                if len(real_batch) * PAGE_SIZE >= STRIPE_SIZE:
                    flush_real()
            if lo < len(ordered):
                runs += synthetic_runs(ordered[lo:], seeds[lo:])

            # Synthetic pages: identical IO accounting, virtual bytes.
            remaining = (len(ordered) - len(real_at)) * PAGE_SIZE
            while remaining > 0:
                chunk = min(remaining, STRIPE_SIZE)
                extent = self.alloc.alloc(chunk)
                info.owned_extents.append((extent, chunk))
                self.clock.advance(costs.STORE_ALLOC_EXTENT)
                syn_extent, syn_chunk = extent, chunk
                done = self.retry.run(
                    lambda: self.device.submit_write(
                        syn_extent,
                        synthetic_payload(seed=oid, length=syn_chunk)),
                    op="store.flush")
                last_done = max(last_done, done)
                info.data_bytes += chunk
                remaining -= chunk
        flush_real()
        return last_done

    def _write_records(self, txn: CheckpointTxn) -> int:
        """Write staged object records; returns latest completion time.

        Records are staged in :data:`RECORD_BATCH`-sized batch extents
        (one allocation + one submitted write per batch); every OID in
        a batch points at the shared extent.  A single staged record
        keeps the bare per-object envelope, so small checkpoints write
        byte-identical extents to the pre-batching format.
        """
        info = txn.info
        last_done = self.clock.now()
        staged = txn.staged_records
        for start in range(0, len(staged), RECORD_BATCH):
            batch = staged[start:start + RECORD_BATCH]
            if len(batch) == 1:
                payload = batch[0][1]
            else:
                payload = records.encode_objects(
                    [data for _oid, data in batch])
            extent = self.alloc.alloc(len(payload))
            info.owned_extents.append((extent, len(payload)))
            self.clock.advance(costs.STORE_ALLOC_EXTENT)
            rec_extent, rec_payload = extent, payload
            done = self.retry.run(
                lambda: self.device.submit_write(rec_extent, rec_payload),
                op="store.flush")
            last_done = max(last_done, done)
            where = (extent, len(payload))
            for oid, _data in batch:
                info.object_records[oid] = where
        return last_done

    def _finalize_commit(self, txn: CheckpointTxn) -> None:
        """Data is durable: write meta + catalog, flip the superblock."""
        with tracing.use(txn.trace):
            with telemetry.registry().span(self.clock, "store.finalize",
                                           group=txn.info.group_id):
                self._finalize_commit_inner(txn)
            if txn.trace is not None:
                # The superblock flip landed: the checkpoint trace
                # reached its durable point.  A crash before here
                # leaves the trace incomplete.
                txn.trace.complete = True
            events.emit(self.clock.now(), events.CKPT_COMMIT,
                        group=txn.info.group_id, ckpt=txn.info.ckpt_id,
                        bytes=txn.info.data_bytes)

    def _finalize_commit_inner(self, txn: CheckpointTxn) -> None:
        info = txn.info
        payload = records.encode(records.REC_CKPT_META, info.encode_meta())
        meta_extent = self.alloc.alloc(len(payload))
        try:
            self.retry.run(lambda: self.device.write(meta_extent, payload),
                           op="store.meta")
        except (InjectedCrash, MachineCrashed):
            raise
        except ReproError:
            self.alloc.free(meta_extent, len(payload))
            raise
        info.meta_extent = (meta_extent, len(payload))
        info.complete = True
        self._pending_commits.pop(info.ckpt_id, None)
        self.checkpoints[info.ckpt_id] = info
        for offset, _length in info.owned_extents:
            self.extent_refs[offset] = self.extent_refs.get(offset, 0) + 1
        try:
            self._write_catalog_and_superblock(pending={
                "group": info.group_id, "ckpt": info.ckpt_id,
                "name": info.name or "", "bytes": info.data_bytes})
        except (InjectedCrash, MachineCrashed):
            raise
        except ReproError:
            # The flip never landed: the checkpoint must not look
            # committed in memory when it is invisible on disk.
            info.complete = False
            info.meta_extent = None
            del self.checkpoints[info.ckpt_id]
            for offset, _length in info.owned_extents:
                refs = self.extent_refs.get(offset, 0) - 1
                if refs > 0:
                    self.extent_refs[offset] = refs
                else:
                    self.extent_refs.pop(offset, None)
            self.device.discard_extent(meta_extent)
            self.alloc.free(meta_extent, len(payload))
            raise
        # Only after the flip: the flushed pages' content is durable,
        # so mark them clean for IO-free pageout eviction (§6).  A
        # write in the meantime replaced the Page object, leaving the
        # new content correctly dirty.  A synthetic page's locator is
        # a function of its own seed, so it shares one mark; a real
        # page's names its slot in the packed extent.
        for oid, table in info.pages.items():
            staged = txn.staged_pages[oid]
            for page in staged.values():
                if page.seed is not None:
                    page.clean_locator = SYNTHETIC_CLEAN
            for run in table.runs:
                if run[0] == "ext":
                    for pindex, locator in run_locators(run):
                        staged[pindex].clean_locator = locator
        self._commit_failures.pop(info.ckpt_id, None)
        self.stats["commits"] += 1
        self.stats["bytes_flushed"] += info.data_bytes
        # Chain depth at commit time — the knob retain_last exists to
        # bound.  Walked defensively: an ancestor may still be an
        # in-flight async commit and thus not yet registered.
        depth = 0
        current: Optional[CheckpointInfo] = info
        while current is not None:
            depth += 1
            current = (self.checkpoints.get(current.parent)
                       if current.parent is not None else None)
        telemetry.registry().histogram(
            "sls.store.chain_depth", group=info.group_id).observe(depth)
        for callback in self._commit_watchers.pop(info.ckpt_id, []):
            callback(info)

    def commit(self, txn: CheckpointTxn, sync: bool = False,
               on_complete: Optional[Callable[[CheckpointInfo], None]] = None,
               on_failure: Optional[Callable[[Exception], None]] = None
               ) -> CheckpointInfo:
        """Commit a checkpoint transaction.

        ``sync=False`` (the continuous-checkpoint path) returns as soon
        as the writes are queued; the commit finalizes via the event
        loop when the data lands, and ``on_complete`` fires then.
        ``sync=True`` advances the clock to durability before
        returning (sls_checkpoint + sls_barrier semantics).

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
        submitted = self.clock.now()
        try:
            done_pages = self._pack_pages(txn)
            done_records = self._write_records(txn)
            data_done = max(done_pages, done_records)
            telemetry.registry().record_span("store.flush", submitted,
                                             data_done,
                                             group=txn.info.group_id)
            if on_complete is not None:
                self._commit_watchers.setdefault(txn.info.ckpt_id,
                                                 []).append(on_complete)
            if on_failure is not None:
                self._commit_failures.setdefault(txn.info.ckpt_id,
                                                 []).append(on_failure)
            if sync:
                self.clock.advance_to(data_done)
                self.device.poll()
                self._finalize_commit(txn)
            else:
                self._pending_commits[txn.info.ckpt_id] = (txn.info.group_id,
                                                           data_done)
                self.loop.call_at(data_done,
                                  lambda: self._finalize_async(txn))
        except (InjectedCrash, MachineCrashed):
            raise
        except ReproError:
            self.abort_checkpoint(txn)
            raise
        return txn.info

    def _finalize_async(self, txn: CheckpointTxn) -> None:
        """Event-loop finalizer: failures abort instead of unwinding
        into whoever happens to be driving the loop."""
        try:
            self._finalize_commit(txn)
        except (InjectedCrash, MachineCrashed):
            raise
        except ReproError as exc:
            self.abort_checkpoint(txn)
            for callback in self._commit_failures.pop(txn.info.ckpt_id, []):
                callback(exc)

    def abort_checkpoint(self, txn: CheckpointTxn) -> int:
        """Roll back a failed checkpoint transaction.

        Frees every extent the transaction allocated, cancels its
        writes still sitting in device queues and discards anything
        that already landed — blockalloc accounting returns exactly to
        its pre-checkpoint state (the no-leaked-blocks regression test
        asserts this).  Returns the number of bytes released.
        """
        info = txn.info
        if info.complete:
            raise InvalidArgument(
                f"checkpoint {info.ckpt_id} already committed")
        if txn.aborted:
            return 0
        txn.aborted = True
        released = 0
        for offset, length in info.owned_extents:
            self.device.cancel_extent(offset)
            self.device.discard_extent(offset)
            self.alloc.free(offset, length)
            released += length
        info.owned_extents = []
        info.object_records = {}
        info.pages = {}
        info.data_bytes = 0
        self._pending_commits.pop(info.ckpt_id, None)
        self._commit_watchers.pop(info.ckpt_id, None)
        events.emit(self.clock.now(), events.CKPT_ABORT,
                    group=info.group_id, ckpt=info.ckpt_id,
                    released_bytes=released)
        telemetry.registry().counter("sls.store.aborts",
                                     group=info.group_id).add(1)
        return released

    def pending_commit_deadline(self, group_id: Optional[int] = None
                                ) -> Optional[int]:
        """Earliest finalize time among in-flight async commits.

        With ``group_id``, only that group's commits are considered —
        the key to waiting out one group's flush without draining
        every other group's (or spinning on periodic timers).
        """
        deadlines = [done for gid, done in self._pending_commits.values()
                     if group_id is None or gid == group_id]
        return min(deadlines) if deadlines else None

    # -- catalog / superblock ------------------------------------------------------------

    def _write_catalog_and_superblock(
            self, pending: Optional[Dict[str, Any]] = None,
            release: Sequence[Tuple[int, int]] = ()) -> None:
        """Write a new catalog and flip the superblock to it — the one
        place a superblock is flipped.

        ``release`` lists the extents this flip unreferences (GC's
        victims).  The superblock still on media can reach them, so
        they go back to the allocator only after every allocation of
        this flip has been made (none can land on them), in time for
        the free list the new superblock carries, and are discarded
        only once the flip has landed.
        """
        catalog_body = {
            "checkpoints": {
                str(ckpt_id): {
                    "meta_extent": list(getattr(info, "meta_extent",
                                                (0, 0))),
                }
                for ckpt_id, info in self.checkpoints.items()
                if info.complete
            },
        }
        payload = records.encode(records.REC_CATALOG, catalog_body)
        old_catalog = self._catalog_extent
        extent = self.alloc.alloc(len(payload))
        try:
            self.retry.run(lambda: self.device.write(extent, payload),
                           op="store.catalog")
        except (InjectedCrash, MachineCrashed):
            raise
        except ReproError:
            self.alloc.free(extent, len(payload))
            raise
        self._catalog_extent = (extent, len(payload))

        self._generation += 1
        # The flight recorder rides every flip: a fixed-size snapshot
        # of the telemetry surfaces, placed at zero simulated cost and
        # anchored by the superblock about to be written — durable
        # exactly when the commit is.  Fixed size keeps the allocator
        # cursor, free list and superblock length identical whether
        # telemetry is enabled or not (timing-identity invariant).
        old_flightrec = self._flightrec_extent
        rec_payload = flightrec.encode_snapshot(
            self, pending=pending, generation=self._generation)
        rec_offset = self.alloc.alloc(len(rec_payload))
        self.device.place_extent(rec_offset, rec_payload)
        self._flightrec_extent = (rec_offset, len(rec_payload))

        free_before = ((list(self.alloc._free), self.alloc.freed_bytes)
                       if release else None)
        for offset, length in release:
            self.alloc.free(offset, length)
        superblock_body: Dict[str, Any] = {
            "generation": self._generation,
            "catalog_extent": list(self._catalog_extent),
            "flightrec": list(self._flightrec_extent),
            "alloc_cursor": self.alloc.cursor,
            "free_list": [[off, length] for off, length in self.alloc._free],
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
        slot = SUPERBLOCK_SLOTS[self._generation % 2]
        self.clock.advance(costs.STORE_COMMIT)
        try:
            self.retry.run(lambda: self.device.write(slot, superblock),
                           op="store.superblock")
        except (InjectedCrash, MachineCrashed):
            raise
        except ReproError:
            # The flip never landed: fall back to the previous catalog
            # so in-memory state matches what recovery would see.
            self.device.discard_extent(extent)
            self.alloc.free(extent, len(payload))
            self._catalog_extent = old_catalog
            self.device.discard_extent(rec_offset)
            self.alloc.free(rec_offset, len(rec_payload))
            self._flightrec_extent = old_flightrec
            if free_before is not None:
                self.alloc._free, self.alloc.freed_bytes = free_before
            self._generation -= 1
            raise
        for offset, _length in release:
            self.device.discard_extent(offset)
        if old_catalog is not None:
            self.alloc.free(*old_catalog)
        if old_flightrec is not None:
            # Freed but not discarded: the previous superblock slot
            # still anchors it until the next flip overwrites the slot.
            self.alloc.free(*old_flightrec)

    def promise_cluster_epoch(self, epoch: int) -> None:
        """Durably promise a cluster membership epoch: once the
        superblock flip lands, this store fences any manifest carrying
        an older epoch — across crash and remount.  Promises are
        monotonic; an older epoch is a no-op."""
        if epoch <= self.cluster_epoch:
            return
        previous = self.cluster_epoch
        self.cluster_epoch = epoch
        try:
            self._write_catalog_and_superblock()
        except (InjectedCrash, MachineCrashed):
            raise
        except ReproError:
            # The flip never landed: the promise was never made.
            self.cluster_epoch = previous
            raise

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
        """The checkpoint and its ancestors, newest first."""
        chain = []
        current: Optional[int] = ckpt_id
        while current is not None:
            info = self.get_checkpoint(current)
            chain.append(info)
            current = info.parent
        return chain

    def effective_live_oids(self, ckpt_id: int) -> Optional[Set[int]]:
        """The OIDs a restore at ``ckpt_id`` may still need.

        The newest non-partial checkpoint carrying liveness info
        defines the base set (its serializer walked every reachable
        object, so anything absent was deleted before it).  Deltas
        *newer* than that base — partials and checkpoints written
        before liveness tracking — may introduce brand-new OIDs, so
        their record/page keys are unioned in conservatively.

        Returns None ("everything along the chain is live") when no
        chain checkpoint carries liveness info, which keeps legacy
        stores, SLSFS checkpoints and pure-partial chains on the
        original unfiltered semantics.  The result is read-only: when
        no newer delta added anything it *is* the base checkpoint's
        set.
        """
        base: Optional[Set[int]] = None
        newer: Set[int] = set()
        for info in self.parent_chain(ckpt_id):
            if not info.partial and info.live_oids is not None:
                base = info.live_oids
                break
            newer.update(info.object_records)
            newer.update(info.pages)
        if base is None:
            return None
        return base if newer <= base else base | newer

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
            telemetry.registry().counter(
                "sls.store.read_fallbacks",
                source="reread" if rank == 0 else "parent").add(1)
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

    def fetch_page(self, locator: PageLocator) -> Page:
        """Materialize a page from its locator (reads the device)."""
        if locator.kind == "syn":
            return Page(seed=locator.seed)
        payload = self.retry.run(lambda: self.device.read(locator.extent),
                                 op="store.read")
        return self._page_from(payload, locator)

    @staticmethod
    def _page_from(payload: Any, locator: PageLocator) -> Page:
        if not isinstance(payload, bytes):
            raise CorruptRecord("page extent holds synthetic data")
        data = payload[locator.byte_off:locator.byte_off + locator.length]
        return Page(data=data)

    def fetch_pages(self, locators: Iterable[PageLocator]) -> List[Page]:
        """Batched :meth:`fetch_page`: the pages, in locator order.

        Each distinct extent is read once, every read is dispatched
        before any is waited for, and the clock advances once to the
        last completion — the queue-depth model
        :meth:`read_object_records` uses for records.
        """
        payloads: Dict[int, Any] = {}
        last_done = self.clock.now()
        pages: List[Page] = []
        for locator in locators:
            if locator.kind == "syn":
                pages.append(Page(seed=locator.seed))
                continue
            extent = locator.extent
            if extent not in payloads:
                payloads[extent], done = self.retry.run(
                    lambda: self.device.read_async(extent),
                    op="store.read")
                last_done = max(last_done, done)
            pages.append(self._page_from(payloads[extent], locator))
        self.clock.advance_to(last_done)
        return pages

    # -- garbage collection ---------------------------------------------------------------------

    def delete_checkpoint(self, ckpt_id: int) -> int:
        """WAFL-style snapshot deletion; returns bytes reclaimed."""
        self._require_mounted()
        info = self.checkpoints.get(ckpt_id)
        group_id = info.group_id if info is not None else 0
        with tracing.trace(self.clock, tracing.GC, group=group_id,
                           ckpt=ckpt_id) as trace_obj:
            reclaimed = gc_mod.delete_checkpoint(self, ckpt_id)
            if trace_obj is not None:
                trace_obj.complete = True
        self.stats["reclaimed_bytes"] += reclaimed
        events.emit(self.clock.now(), events.GC_RECLAIM, group=group_id,
                    ckpt=ckpt_id, bytes=reclaimed)
        return reclaimed

    def truncate_checkpoint(self, ckpt_id: int) -> int:
        """Delete a childless checkpoint from the new end of its
        chain (quorum recovery's tail truncation); returns bytes
        reclaimed."""
        self._require_mounted()
        info = self.checkpoints.get(ckpt_id)
        group_id = info.group_id if info is not None else 0
        reclaimed = gc_mod.truncate_checkpoint(self, ckpt_id)
        self.stats["reclaimed_bytes"] += reclaimed
        events.emit(self.clock.now(), events.GC_RECLAIM, group=group_id,
                    ckpt=ckpt_id, bytes=reclaimed, truncated=True)
        return reclaimed

    def retain_last(self, group_id: int, keep: int) -> int:
        """Trim a group's history to its ``keep`` newest checkpoints."""
        reclaimed = 0
        chain = self.checkpoints_for(group_id, include_partial=True)
        while len(chain) > keep:
            reclaimed += self.delete_checkpoint(chain[0].ckpt_id)
            chain = self.checkpoints_for(group_id, include_partial=True)
        return reclaimed

    # -- journals -------------------------------------------------------------------------------------

    def journal_create(self, capacity: int) -> Journal:
        """Preallocate a non-COW journal region (sync, small)."""
        self._require_mounted()
        jid = self.alloc_oid(CLASS_JOURNAL)
        base = self.alloc.alloc(capacity)
        journal = Journal(self, jid, base, capacity)
        self.journals[jid] = journal
        journal._write_header()
        # Journal existence must survive a crash: flip the superblock.
        self._write_catalog_and_superblock()
        return journal

    def journal(self, jid: int) -> Journal:
        """An existing journal by id (NoSuchObject otherwise)."""
        try:
            return self.journals[jid]
        except KeyError:
            raise NoSuchObject(f"journal {jid}")

    # -- swap integration ----------------------------------------------------------------------------------

    def stage_swap_page(self, vmobject: Any, pindex: int,
                        page: Page) -> PageLocator:
        """Flush a dirty page on the unified checkpoint/swap data path."""
        if page.synthetic:
            extent = self.alloc.alloc(PAGE_SIZE)
            self.device.submit_write(
                extent, synthetic_payload(page.seed, PAGE_SIZE))
            return PageLocator.synthetic(page.seed)
        payload = page.realize()
        extent = self.alloc.alloc(len(payload))
        done = self.device.submit_write(extent, payload)
        self.clock.advance_to(done)
        self.device.poll()
        return PageLocator.in_extent(extent, 0, len(payload))

    # -- stats ------------------------------------------------------------------------------------------------

    def used_bytes(self) -> int:
        """Live bytes allocated on the array."""
        return self.alloc.used_bytes()

"""Offline integrity scrub over the versioned object store.

The commit protocol promises that everything reachable from a valid
superblock is durable and consistent; the scrubber *checks* that
promise the way a versioned-OSD fsck would, walking the on-disk object
graph top-down:

    superblock slots → catalog → checkpoint metadata records →
    object record extents → page data extents

verifying along the way:

* **Checksums** — every metadata/record extent decodes through the
  :mod:`repro.serde` envelope (CRC32 + strict TLV), so a flipped byte
  anywhere in a record surfaces as a ``checksum`` finding.
* **Reachability** — every extent a checkpoint references (its own
  metadata, object records, page data) actually exists on the device;
  a dangling pointer is a ``dangling`` finding.
* **Free list and orphans** — the mounted store's allocator is
  compared with the free list its owners leave
  (:meth:`~repro.objstore.blockalloc.ExtentAllocator.derive`, what a
  mount sets): the owners are :meth:`ObjectStore.owned_extents` — the
  checkpoints, in-flight commits, journals, the superblock's catalog
  and flight record, and the eviction table (pages evicted dirty that
  no commit has adopted yet).  A free span on an owned extent is a
  ``freelist`` finding (a later allocation would overwrite it); an
  allocated stretch nothing owns is an ``orphan``, space nothing will
  ever free.
* **Liveness** — incremental checkpoints leave an unchanged object's
  record in an ancestor delta, so every OID in a checkpoint's
  effective live set must still resolve to a record somewhere along
  its parent chain.  The chain and the live set are the store's own
  (:func:`~repro.objstore.checkpoint.chain_of`,
  :func:`~repro.objstore.checkpoint.live_set`), taken over the
  decoded on-disk metadata; what is checked is the record index.  A
  live OID with no reachable record means GC lost state when it
  handed a deleted parent's records to its children (the exact
  failure record adoption exists to prevent).
* **Shadow chains** — for live consistency groups (when an
  orchestrator is passed), each tracked object's shadow chain holds at
  most :data:`MAX_SHADOW_DEPTH` shadows above its base: the eager
  collapse invariant of §6.  Ablation modes that let chains grow are
  exactly what this catches.

Results land in a :class:`ScrubReport`, booked once per pass into
telemetry counters (``sls.scrub.*``), and ``sls scrub`` exposes the
walk on the CLI.  Checkpoint metadata is decoded with the reader mount
uses (:func:`~repro.objstore.recovery.read_checkpoint_meta`).  The
scrub only ever *reads* the device; it never repairs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core import events, telemetry, tracing
from ..errors import CorruptRecord, StoreError
from ..hw.nvme import payload_length
from . import records
from .blockalloc import ExtentAllocator
from .checkpoint import CheckpointInfo, chain_of, live_set
from .recovery import _read_superblocks, read_checkpoint_meta

#: Shadow objects allowed above a chain's base: the active top plus at
#: most one frozen (flushing / awaiting collapse) shadow (§6).
MAX_SHADOW_DEPTH = 2

#: Finding kinds.
SUPERBLOCK = "superblock"
CHECKSUM = "checksum"
DANGLING = "dangling"
FREELIST = "freelist"
CHAIN = "shadow-chain"
LIVENESS = "liveness"
ORPHAN = "orphan"


class Finding:
    """One integrity violation the scrub observed."""

    __slots__ = ("kind", "detail", "ckpt_id")

    def __init__(self, kind: str, detail: str,
                 ckpt_id: Optional[int] = None) -> None:
        self.kind = kind
        self.detail = detail
        self.ckpt_id = ckpt_id

    def __repr__(self) -> str:
        where = f" (ckpt {self.ckpt_id})" if self.ckpt_id is not None else ""
        return f"Finding({self.kind}: {self.detail}{where})"


class ScrubReport:
    """Everything one scrub pass saw, plus its verdict."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        #: Set by :func:`scrub` so each finding also lands in the
        #: structured event log at the sim-instant it was observed.
        self.clock: Optional[Any] = None
        self.superblocks_valid = 0
        self.generation: Optional[int] = None
        self.checkpoints_scanned = 0
        self.records_verified = 0
        self.page_extents_verified = 0
        self.chains_checked = 0
        self.liveness_checked = 0
        self.stats = telemetry.StatsView(
            "sls.scrub",
            keys=("runs", "checkpoints", "records", "page_extents",
                  "chains", "liveness", "findings"))

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, kind: str, detail: str,
            ckpt_id: Optional[int] = None) -> None:
        self.findings.append(Finding(kind, detail, ckpt_id))
        if self.clock is not None:
            events.emit(self.clock.now(), events.SCRUB_FINDING,
                        finding=kind, detail=detail, ckpt=ckpt_id)

    def book(self) -> None:
        """Add this pass to the ``sls.scrub.*`` counters."""
        stats = self.stats
        stats["runs"] += 1
        stats["checkpoints"] += self.checkpoints_scanned
        stats["records"] += self.records_verified
        stats["page_extents"] += self.page_extents_verified
        stats["chains"] += self.chains_checked
        stats["liveness"] += self.liveness_checked
        stats["findings"] += len(self.findings)

    def __repr__(self) -> str:
        verdict = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        return (f"ScrubReport({verdict}: {self.checkpoints_scanned} ckpts, "
                f"{self.records_verified} records, "
                f"{self.page_extents_verified} page extents)")


def _scan_checkpoint(store: Any, report: ScrubReport,
                     info: CheckpointInfo) -> None:
    """Verify one checkpoint's record and page extents."""
    device = store.device
    # Record extents are shared by every OID staged in the same batch:
    # read + checksum each distinct extent once, then check per-OID
    # membership against the decoded batch.
    batch_oids: Dict[int, Optional[Set[int]]] = {}
    batch_errors: Dict[int, str] = {}
    for oid, (extent, _length) in sorted(info.object_records.items()):
        if not device.has_extent(extent):
            report.add(DANGLING,
                       f"object record for oid {oid} points at missing "
                       f"extent {extent}", info.ckpt_id)
            continue
        if extent not in batch_oids:
            payload = device.read(extent)
            if not isinstance(payload, bytes):
                batch_oids[extent] = None
                batch_errors[extent] = (
                    f"object record extent {extent} holds synthetic data")
            else:
                try:
                    batch_oids[extent] = {
                        r_oid for r_oid, _otype, _state
                        in records.decode_objects(payload)}
                except CorruptRecord as exc:
                    batch_oids[extent] = None
                    batch_errors[extent] = (
                        f"object record at extent {extent}: {exc}")
        members = batch_oids[extent]
        if members is None:
            report.add(CHECKSUM, batch_errors[extent], info.ckpt_id)
            continue
        if oid not in members:
            report.add(CHECKSUM,
                       f"object record extent {extent} does not contain "
                       f"oid {oid} the catalog maps to it", info.ckpt_id)
        report.records_verified += 1

    for oid, table in sorted(info.pages.items()):
        for run in table.runs:
            if run[0] != "ext":
                continue  # synthetic: content is a function of the seed
            _kind, start, count, extent, byte_off0, length = run
            if not device.has_extent(extent):
                for pindex in range(start, start + count):
                    report.add(DANGLING,
                               f"page {pindex} of oid {oid} points at "
                               f"missing extent {extent}", info.ckpt_id)
                continue
            # One bounds check per run: slot i ends at
            # byte_off0 + length * (i + 1), so the pages that fit are a
            # prefix of the run.
            room = payload_length(device.read(extent)) - byte_off0
            if room >= length * count:
                fit = count
            else:
                fit = max(room, 0) // length if length else 0
            for pindex in range(start + fit, start + count):
                report.add(DANGLING,
                           f"page {pindex} of oid {oid} overruns extent "
                           f"{extent}", info.ckpt_id)
            report.page_extents_verified += fit


def _scan_allocator(report: ScrubReport, alloc: ExtentAllocator,
                    owned: List[Tuple[int, int]]) -> None:
    """The allocator against the free list ``owned`` leaves: what only
    the derivation frees is an orphan, what only the allocator frees
    an owned extent on the free list."""
    derived = alloc.derive(owned)
    for offset, length in alloc.unowned(owned):
        report.add(ORPHAN, f"extent [{offset}, {offset + length}) is "
                           f"allocated but nothing owns it")
    # Neither allocated (alloc.unowned(())) nor free by the derivation.
    for offset, length in alloc.derive([*alloc.unowned(()), *derived]):
        report.add(FREELIST, f"free span [{offset}, {offset + length}) "
                             f"lies on an owned extent")


def _scan_liveness(report: ScrubReport,
                   checkpoints: Dict[int, CheckpointInfo]) -> None:
    """Cross-checkpoint record reachability.

    For every checkpoint whose chain carries liveness info, take the
    effective live set over the decoded on-disk metadata and require
    each live OID to resolve to an object record somewhere along the
    parent chain.  A chain with a missing ancestor is walked as far as
    it goes (the hole is a ``dangling`` finding of its own); chains
    without liveness info (SLSFS, pure-partial histories) have nothing
    to cross-check against.
    """
    for ckpt_id in sorted(checkpoints):
        chain = chain_of(checkpoints, ckpt_id)
        live = live_set(chain)
        if live is None:
            continue
        report.liveness_checked += 1
        merged: set = set()
        for info in chain:
            merged.update(info.object_records)
        missing = sorted(live - merged)
        for oid in missing[:8]:
            report.add(LIVENESS,
                       f"oid {oid} is live at checkpoint {ckpt_id} but no "
                       f"chain delta holds its record", ckpt_id)
        if len(missing) > 8:
            report.add(LIVENESS,
                       f"... and {len(missing) - 8} more unreachable live "
                       f"oid(s)", ckpt_id)


def _chain_segment_len(track: Any) -> int:
    """Objects in the track's chain segment (same logical object),
    walking from the active top down — the walk
    :func:`~repro.core.shadowing.merged_chain` performs."""
    top = track.active
    length = 0
    for obj in top.chain():
        if obj is not top and obj.sls_oid not in (None, top.sls_oid):
            break
        length += 1
    return length


def _scan_shadow_chains(sls: Any, report: ScrubReport) -> None:
    for group in sorted(sls.groups.values(), key=lambda g: g.group_id):
        for oid, track in sorted(group.tracks.items()):
            if track.active is None:
                continue
            report.chains_checked += 1
            depth = _chain_segment_len(track) - 1  # shadows above base
            if depth > MAX_SHADOW_DEPTH:
                report.add(CHAIN,
                           f"group {group.group_id} oid {oid}: {depth} "
                           f"shadows above the chain base "
                           f"(limit {MAX_SHADOW_DEPTH})")


def scrub(store: Any, sls: Optional[Any] = None) -> ScrubReport:
    """Scrub the store's on-disk object graph; returns the report.

    ``store`` supplies the device and (when mounted) the allocator and
    owners the orphan check compares.  Passing the orchestrator as
    ``sls`` additionally checks live groups' shadow-chain invariant.  The walk
    runs under a ``scrub`` operation trace; findings are also emitted
    into the structured event log.
    """
    report = ScrubReport()
    report.clock = getattr(store, "clock", None)
    clock = report.clock
    if clock is None:
        _scrub_walk(store, sls, report)
    else:
        with tracing.trace(clock, tracing.SCRUB) as trace_obj:
            _scrub_walk(store, sls, report)
            if trace_obj is not None:
                trace_obj.complete = True
    report.book()
    return report


def _scrub_walk(store: Any, sls: Optional[Any],
                report: ScrubReport) -> ScrubReport:
    device = store.device

    slots = _read_superblocks(device)
    valid = [sb for _slot, sb, _present in slots if sb is not None]
    report.superblocks_valid = len(valid)
    for slot, decoded, present in slots:
        if present and decoded is None:
            # Named per slot so ``sls scrub --repair`` can rewrite the
            # damaged mirror from its valid twin.
            report.add(SUPERBLOCK,
                       f"superblock slot {slot} holds undecodable data")
    if not valid:
        if not report.findings:
            report.add(SUPERBLOCK, "no valid superblock in either slot")
        return report
    superblock = valid[0]
    report.generation = superblock["generation"]

    catalog_extent = tuple(superblock["catalog_extent"])
    if not device.has_extent(catalog_extent[0]):
        report.add(DANGLING,
                   f"superblock generation {report.generation} points at "
                   f"missing catalog extent {catalog_extent[0]}")
        return report
    try:
        payload = device.read(catalog_extent[0])
        if not isinstance(payload, bytes):
            raise CorruptRecord("catalog extent holds synthetic data")
        catalog = records.decode(payload, records.REC_CATALOG)
    except (CorruptRecord, StoreError) as exc:
        report.add(CHECKSUM, f"catalog extent {catalog_extent[0]}: {exc}")
        return report

    checkpoints: Dict[int, CheckpointInfo] = {}
    for ckpt_id, entry in sorted(catalog["checkpoints"].items(),
                                 key=lambda item: int(item[0])):
        meta_offset = entry["meta_extent"][0]
        if not device.has_extent(meta_offset):
            report.add(DANGLING,
                       f"checkpoint {ckpt_id} metadata extent "
                       f"{meta_offset} missing", int(ckpt_id))
            continue
        try:
            info, _spans = read_checkpoint_meta(device, entry)
        except (CorruptRecord, StoreError) as exc:
            report.add(CHECKSUM,
                       f"checkpoint {ckpt_id} metadata: {exc}",
                       int(ckpt_id))
            continue
        checkpoints[info.ckpt_id] = info
        report.checkpoints_scanned += 1
        _scan_checkpoint(store, report, info)

    # Parent pointers must resolve within the catalog (deleted parents
    # are rewritten out by GC before the old metadata goes away).
    for info in checkpoints.values():
        if info.parent is not None and info.parent not in checkpoints \
                and str(info.parent) not in catalog["checkpoints"]:
            report.add(DANGLING,
                       f"checkpoint {info.ckpt_id} parent {info.parent} "
                       f"is not in the catalog", info.ckpt_id)

    if getattr(store, "_mounted", False):
        _scan_allocator(report, store.alloc, store.owned_extents())
    _scan_liveness(report, checkpoints)
    if sls is not None:
        _scan_shadow_chains(sls, report)
    return report

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
* **Reference counts** — the per-extent refcounts implied by the
  checkpoints' ``owned_extents`` match the mounted store's in-memory
  counts, and no live extent sits on the superblock's free list.
* **Liveness** — incremental checkpoints leave an unchanged object's
  record in an ancestor delta, so every OID in a checkpoint's
  effective live set must still resolve to a record somewhere along
  its parent chain.  A live OID with no reachable record means GC
  lost state when it handed a deleted parent's records to its
  children (the exact failure record adoption exists to prevent).
* **Shadow chains** — for live consistency groups (when an
  orchestrator is passed), each tracked object's shadow chain holds at
  most :data:`MAX_SHADOW_DEPTH` shadows above its base: the eager
  collapse invariant of §6.  Ablation modes that let chains grow are
  exactly what this catches.

Results land in a :class:`ScrubReport` and in telemetry counters
(``sls.scrub.*``), and ``sls scrub`` exposes the walk on the CLI.
The scrub only ever *reads* the device; it never repairs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ..core import events, telemetry, tracing
from ..errors import CorruptRecord, StoreError
from ..hw.nvme import payload_length
from . import records
from .checkpoint import CheckpointInfo
from .recovery import _read_superblocks

#: Shadow objects allowed above a chain's base: the active top plus at
#: most one frozen (flushing / awaiting collapse) shadow (§6).
MAX_SHADOW_DEPTH = 2

#: Finding kinds.
SUPERBLOCK = "superblock"
CHECKSUM = "checksum"
DANGLING = "dangling"
REFCOUNT = "refcount"
FREELIST = "freelist"
CHAIN = "shadow-chain"
LIVENESS = "liveness"


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
        self.extents_counted = 0
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
        self.stats["findings"] += 1
        if self.clock is not None:
            events.emit(self.clock.now(), events.SCRUB_FINDING,
                        finding=kind, detail=detail, ckpt=ckpt_id)

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
        report.stats["records"] += 1

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
            report.stats["page_extents"] += fit


def _scan_refcounts(store: Any, report: ScrubReport,
                    checkpoints: Dict[int, CheckpointInfo],
                    superblock: dict) -> None:
    """Recompute extent refcounts from metadata; cross-check the
    mounted store and the superblock's free list."""
    expected: Dict[int, int] = {}
    lengths: Dict[int, int] = {}
    for info in checkpoints.values():
        for offset, length in info.owned_extents:
            expected[offset] = expected.get(offset, 0) + 1
            lengths[offset] = length
        report.extents_counted += len(info.owned_extents)

    if store is not None and getattr(store, "_mounted", False):
        for offset, count in sorted(expected.items()):
            have = store.extent_refs.get(offset, 0)
            if have != count:
                report.add(REFCOUNT,
                           f"extent {offset}: metadata implies "
                           f"{count} reference(s), store tracks {have}")
        for offset, have in sorted(store.extent_refs.items()):
            if offset not in expected:
                report.add(REFCOUNT,
                           f"extent {offset}: store tracks {have} "
                           f"reference(s) but no checkpoint owns it")

    free_spans = [(pair[0], pair[1]) for pair in superblock["free_list"]]
    for offset in sorted(expected):
        length = lengths[offset]
        for free_off, free_len in free_spans:
            if offset < free_off + free_len and free_off < offset + length:
                report.add(FREELIST,
                           f"live extent [{offset}, {offset + length}) "
                           f"overlaps free span [{free_off}, "
                           f"{free_off + free_len})")
                break


def _meta_parent_chain(checkpoints: Dict[int, CheckpointInfo],
                       ckpt_id: int) -> List[CheckpointInfo]:
    """Parent chain (newest first) over the *decoded* metadata set.

    A parent missing from the catalog terminates the walk — that hole
    is already a ``dangling`` finding from the parent-pointer scan.
    """
    chain: List[CheckpointInfo] = []
    current: Optional[int] = ckpt_id
    while current is not None:
        info = checkpoints.get(current)
        if info is None:
            break
        chain.append(info)
        current = info.parent
    return chain


def _scan_liveness(report: ScrubReport,
                   checkpoints: Dict[int, CheckpointInfo]) -> None:
    """Cross-checkpoint record reachability.

    For every checkpoint whose chain carries liveness info, recompute
    the effective live set (mirroring
    :meth:`ObjectStore.effective_live_oids`, but over the decoded
    on-disk metadata) and require each live OID to resolve to an
    object record somewhere along the parent chain.  Chains without
    liveness info (legacy stores, pure-partial histories) are skipped
    — they have nothing to cross-check against.
    """
    for ckpt_id in sorted(checkpoints):
        chain = _meta_parent_chain(checkpoints, ckpt_id)
        base: Optional[set] = None
        newer: set = set()
        for info in chain:
            if not info.partial and info.live_oids is not None:
                base = info.live_oids
                break
            newer.update(info.object_records)
            newer.update(info.pages)
        if base is None:
            continue
        report.liveness_checked += 1
        report.stats["liveness"] += 1
        live = base | newer
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
    :func:`~repro.core.shadowing.merged_chain_pages` performs."""
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
            report.stats["chains"] += 1
            depth = _chain_segment_len(track) - 1  # shadows above base
            if depth > MAX_SHADOW_DEPTH:
                report.add(CHAIN,
                           f"group {group.group_id} oid {oid}: {depth} "
                           f"shadows above the chain base "
                           f"(limit {MAX_SHADOW_DEPTH})")


def scrub(store: Any, sls: Optional[Any] = None) -> ScrubReport:
    """Scrub the store's on-disk object graph; returns the report.

    ``store`` supplies the device and (when mounted) the in-memory
    refcounts to cross-check.  Passing the orchestrator as ``sls``
    additionally checks live groups' shadow-chain invariant.  The walk
    runs under a ``scrub`` operation trace; findings are also emitted
    into the structured event log.
    """
    report = ScrubReport()
    report.clock = getattr(store, "clock", None)
    report.stats["runs"] += 1
    clock = report.clock
    if clock is None:
        return _scrub_walk(store, sls, report)
    with tracing.trace(clock, tracing.SCRUB) as trace_obj:
        _scrub_walk(store, sls, report)
        if trace_obj is not None:
            trace_obj.complete = True
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
        meta_extent = tuple(entry["meta_extent"])
        if not device.has_extent(meta_extent[0]):
            report.add(DANGLING,
                       f"checkpoint {ckpt_id} metadata extent "
                       f"{meta_extent[0]} missing", int(ckpt_id))
            continue
        try:
            payload = device.read(meta_extent[0])
            if not isinstance(payload, bytes):
                raise CorruptRecord("metadata extent holds synthetic data")
            meta = records.decode(payload, records.REC_CKPT_META)
            info = CheckpointInfo.decode_meta(meta)
        except (CorruptRecord, StoreError) as exc:
            report.add(CHECKSUM,
                       f"checkpoint {ckpt_id} metadata: {exc}",
                       int(ckpt_id))
            continue
        info.meta_extent = meta_extent
        checkpoints[info.ckpt_id] = info
        report.checkpoints_scanned += 1
        report.stats["checkpoints"] += 1
        _scan_checkpoint(store, report, info)

    # Parent pointers must resolve within the catalog (deleted parents
    # are rewritten out by GC before the old metadata goes away).
    for info in checkpoints.values():
        if info.parent is not None and info.parent not in checkpoints \
                and str(info.parent) not in catalog["checkpoints"]:
            report.add(DANGLING,
                       f"checkpoint {info.ckpt_id} parent {info.parent} "
                       f"is not in the catalog", info.ckpt_id)

    _scan_refcounts(store, report, checkpoints, superblock)
    _scan_liveness(report, checkpoints)
    if sls is not None:
        _scan_shadow_chains(sls, report)
    return report

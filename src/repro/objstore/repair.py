"""Online repair: promote scrubber findings into applied fixes.

:func:`repair` is the write-side twin of :func:`~repro.objstore.scrub.
scrub`: where the scrubber only ever *reads* the device and reports,
the repairer takes a scrub report (or runs its own pass) and fixes
what is mechanically fixable:

* **Bad superblock slot** — a slot that holds bytes which no longer
  decode is rewritten from its valid mirror twin (the slots alternate
  by generation, so the twin carries the newest durable root; copying
  it restores two-slot redundancy without inventing state).
* **Stale refcounts** — per-extent reference counts are recomputed
  from the checkpoints' ``owned_extents`` (the authoritative source
  the scrubber itself cross-checks) and the mounted store's in-memory
  counters are reset to match; counters for extents no checkpoint
  owns are dropped.
* **Free-list overlaps** — free spans that overlap a live extent are
  trimmed so a later allocation can never hand out live blocks.
* **Overgrown shadow chains** — chains deeper than
  :data:`~repro.objstore.scrub.MAX_SHADOW_DEPTH` (the §6 eager-
  collapse bound) are collapsed reverse-style, shadow by shadow,
  until they meet the bound — the repair equivalent of the collapse
  pass an ablation run skipped.

Disk-state repairs are persisted through the store's own
catalog/superblock commit path, so a repaired image recovers exactly
like a healthy one.  Every applied fix is a ``repair.applied`` event
(``sls events``) and counts into ``sls.repair.applied``; what cannot
be fixed (e.g. both superblock slots gone) is recorded as skipped.
``sls scrub --repair`` drives this and re-scrubs to prove the fixes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core import events, telemetry
from . import records
from .blockalloc import _align_up
from .recovery import _read_superblocks
from .scrub import MAX_SHADOW_DEPTH, ScrubReport, _chain_segment_len, scrub


class RepairAction:
    """One fix the repairer applied (or had to skip)."""

    __slots__ = ("kind", "detail", "applied")

    def __init__(self, kind: str, detail: str, applied: bool = True):
        self.kind = kind
        self.detail = detail
        self.applied = applied

    def __repr__(self) -> str:
        verb = "applied" if self.applied else "skipped"
        return f"RepairAction({verb} {self.kind}: {self.detail})"


class RepairReport:
    """Everything one repair pass did."""

    def __init__(self) -> None:
        self.actions: List[RepairAction] = []
        self.skipped: List[RepairAction] = []
        self.clock: Optional[Any] = None

    @property
    def applied(self) -> int:
        return len(self.actions)

    def add(self, kind: str, detail: str) -> None:
        self.actions.append(RepairAction(kind, detail))
        telemetry.registry().counter("sls.repair.applied",
                                     kind=kind).add(1)
        if self.clock is not None:
            events.emit(self.clock.now(), events.REPAIR_APPLIED,
                        repair=kind, detail=detail)

    def skip(self, kind: str, detail: str) -> None:
        self.skipped.append(RepairAction(kind, detail, applied=False))

    def __repr__(self) -> str:
        return (f"RepairReport({self.applied} applied, "
                f"{len(self.skipped)} skipped)")


def _repair_superblocks(store: Any, report: RepairReport) -> bool:
    """Rewrite any present-but-undecodable slot from its valid twin.

    Returns True when at least one slot was rewritten.
    """
    device = store.device
    slots = _read_superblocks(device)
    valid = [(slot, sb) for slot, sb, _present in slots if sb is not None]
    bad = [slot for slot, sb, present in slots if present and sb is None]
    if not bad:
        return False
    if not valid:
        for slot in bad:
            report.skip("superblock",
                        f"slot {slot} is damaged and no valid twin "
                        f"remains to copy from")
        return False
    # Copy the newest durable root into every damaged slot.
    _src_slot, newest = valid[0]
    payload = records.encode(records.REC_SUPERBLOCK, newest)
    for slot in bad:
        device.discard_extent(slot)
        device.write(slot, payload)
        report.add("superblock",
                   f"rewrote slot {slot} from valid twin "
                   f"(generation {newest['generation']})")
    return True


def _expected_refcounts(store: Any) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(offset -> refcount, offset -> length) implied by metadata."""
    expected: Dict[int, int] = {}
    lengths: Dict[int, int] = {}
    for info in store.checkpoints.values():
        if not info.complete:
            continue
        for offset, length in info.owned_extents:
            expected[offset] = expected.get(offset, 0) + 1
            lengths[offset] = length
    return expected, lengths


def _repair_refcounts(store: Any, report: RepairReport) -> bool:
    """Reset the mounted store's refcounts to what metadata implies."""
    if not getattr(store, "_mounted", False):
        return False
    expected, _lengths = _expected_refcounts(store)
    changed = False
    for offset, count in sorted(expected.items()):
        have = store.extent_refs.get(offset, 0)
        if have != count:
            store.extent_refs[offset] = count
            report.add("refcount",
                       f"extent {offset}: reset refcount {have} -> {count}")
            changed = True
    for offset in sorted(set(store.extent_refs) - set(expected)):
        have = store.extent_refs.pop(offset)
        report.add("refcount",
                   f"extent {offset}: dropped stale refcount {have} "
                   f"(no checkpoint owns it)")
        changed = True
    return changed


def _repair_freelist(store: Any, report: RepairReport) -> bool:
    """Trim free spans overlapping live extents (never hand out live
    blocks again).  Returns True when the free list changed."""
    expected, lengths = _expected_refcounts(store)
    live = sorted((offset, lengths[offset]) for offset in expected)
    if not live:
        return False
    trimmed: List[Tuple[int, int]] = []
    changed = False
    for free_off, free_len in store.alloc._free:
        spans = [(free_off, free_len)]
        for off, raw_len in live:
            # Live extents are stored with raw lengths; overlap checks
            # must use the allocator's aligned footprint.
            length = _align_up(raw_len)
            next_spans: List[Tuple[int, int]] = []
            for s_off, s_len in spans:
                s_end = s_off + s_len
                end = off + length
                if off >= s_end or end <= s_off:
                    next_spans.append((s_off, s_len))
                    continue
                changed = True
                report.add("freelist",
                           f"trimmed live extent [{off}, {end}) out of "
                           f"free span [{s_off}, {s_end})")
                if s_off < off:
                    next_spans.append((s_off, off - s_off))
                if end < s_end:
                    next_spans.append((end, s_end - end))
            spans = next_spans
        trimmed.extend(spans)
    if changed:
        freed_delta = (sum(l for _o, l in store.alloc._free)
                       - sum(l for _o, l in trimmed))
        store.alloc._free = sorted(trimmed)
        # The trimmed bytes are live again: charge them back so
        # used_bytes() stays truthful.
        store.alloc.freed_bytes -= freed_delta
    return changed


def _repair_shadow_chains(sls: Any, report: RepairReport) -> int:
    """Collapse every chain past the eager-collapse bound.

    Returns the number of shadows collapsed.  Pages always move
    reverse-style (down into the parent) — the cheap direction, and
    the only one that preserves the base object's identity.
    """
    collapsed = 0
    for group in sorted(sls.groups.values(), key=lambda g: g.group_id):
        for oid, track in sorted(group.tracks.items()):
            top = track.active
            if top is None:
                continue
            while _chain_segment_len(track) - 1 > MAX_SHADOW_DEPTH:
                frozen = top.backing
                if frozen is None or frozen.backing is None:
                    break  # already at the base
                if frozen.shadow_count != 1:
                    report.skip("shadow-chain",
                                f"group {group.group_id} oid {oid}: "
                                f"shadow has forked children; cannot "
                                f"collapse")
                    break
                parent, moved = frozen.collapse_into_parent()
                frozen.shadow_count -= 1
                top.backing = parent
                parent.shadow_count += 1
                frozen.unref()
                collapsed += 1
                report.add("shadow-chain",
                           f"group {group.group_id} oid {oid}: collapsed "
                           f"one shadow ({moved} page(s) moved down)")
            if track.frozen is not None \
                    and track.frozen not in top.chain():
                # The marker pointed at a shadow that just merged away.
                track.frozen = None
                track.flushed = False
    return collapsed


def repair(store: Any, report: Optional[ScrubReport] = None,
           sls: Optional[Any] = None) -> RepairReport:
    """Fix what the scrub found; returns what was done.

    ``report`` is advisory — repairs are re-derived from the device
    and the mounted store so a stale report can never drive a wrong
    fix.  Pass the orchestrator as ``sls`` to also collapse overgrown
    shadow chains.  Disk-state changes are persisted through the
    store's normal catalog/superblock commit, so the repaired image
    recovers like a healthy one.
    """
    out = RepairReport()
    out.clock = getattr(store, "clock", None)
    if report is None:
        report = scrub(store, sls=sls)
    if report.ok:
        return out

    kinds = {finding.kind for finding in report.findings}
    _repair_superblocks(store, out)
    if "refcount" in kinds:
        _repair_refcounts(store, out)
    free_fixed = "freelist" in kinds and _repair_freelist(store, out)
    if sls is not None and "shadow-chain" in kinds:
        _repair_shadow_chains(sls, out)

    # Persist repaired allocator state through the normal commit path
    # (fresh catalog + superblock flip).  Slot rewrites are already
    # durable; refcount fixes are in-memory by construction.
    if free_fixed and getattr(store, "_mounted", False):
        store._write_catalog_and_superblock()
    unhandled = kinds - {"superblock", "refcount", "freelist",
                         "shadow-chain"}
    for kind in sorted(unhandled):
        out.skip(kind, "no mechanical repair for this finding kind")
    return out

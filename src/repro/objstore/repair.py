"""Online repair: promote scrubber findings into applied fixes.

:func:`repair` is the write-side twin of :func:`~repro.objstore.scrub.
scrub`: where the scrubber only ever *reads* the device and reports,
the repairer takes a scrub report (or runs its own pass) and fixes
what is mechanically fixable:

* **Bad superblock slot** — a slot that holds bytes which no longer
  decode is rewritten from its valid mirror twin (the slots alternate
  by generation, so the twin carries the newest durable root; copying
  it restores two-slot redundancy without inventing state).
* **Free list** — a free span on an owned extent or an orphan: the
  allocator's free list is replaced with the one the store's owners
  leave (:meth:`~repro.objstore.blockalloc.ExtentAllocator.derive`,
  what a mount sets), so a later allocation never hands out live
  blocks and nothing leaks.  The free list is not on media, so this
  needs no flip.
* **Overgrown shadow chains** — chains deeper than
  :data:`~repro.objstore.scrub.MAX_SHADOW_DEPTH` (the §6 eager-
  collapse bound) are collapsed reverse-style, shadow by shadow,
  until they meet the bound — the repair equivalent of the collapse
  pass an ablation run skipped.

Every applied fix is a ``repair.applied`` event
(``sls events``) and one of the report's ``actions``; what cannot be
fixed (e.g. both superblock slots gone) is recorded as skipped.
``sls scrub --repair`` drives this and re-scrubs to prove the fixes.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core import events
from . import records
from .recovery import _read_superblocks
from .scrub import (FREELIST, MAX_SHADOW_DEPTH, ORPHAN, ScrubReport,
                    _chain_segment_len, scrub)


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
    shadow chains.
    """
    out = RepairReport()
    out.clock = getattr(store, "clock", None)
    if report is None:
        report = scrub(store, sls=sls)
    if report.ok:
        return out

    kinds = {finding.kind for finding in report.findings}
    _repair_superblocks(store, out)
    if kinds & {FREELIST, ORPHAN} and getattr(store, "_mounted", False):
        alloc = store.alloc
        alloc.restore((alloc.cursor, alloc.derive(store.owned_extents())))
        out.add(FREELIST, "re-derived the free list from the owners")
    if sls is not None and "shadow-chain" in kinds:
        _repair_shadow_chains(sls, out)
    unhandled = kinds - {"superblock", FREELIST, ORPHAN, "shadow-chain"}
    for kind in sorted(unhandled):
        out.skip(kind, "no mechanical repair for this finding kind")
    return out

"""Reference model of a checkpoint's record index: one entry per OID.

The per-OID ``{oid: (offset, length)}`` map that
:class:`repro.objstore.checkpoint.RecordIndex` replaced, with the
encoder that regrouped it by extent for every metadata write, GC's
per-OID forwarding loop, and the arithmetic-run greedy as it was first
written (the oracle of :func:`repro.core.runs.build_arith_runs`).
Kept as the oracle of ``tests/test_gc_adoption.py`` — nothing under
``src/`` imports it.
"""

from repro.core.runs import expand_arith_runs


def build_arith_runs(indexes):
    """The greedy ``[start, count, step]`` coalescing, editing the last
    run in place: a run's second value pins its step, and each next
    value extends it while it stays on that stride."""
    runs = []
    for value in sorted(indexes):
        if runs:
            start, count, step = runs[-1]
            if count == 1:
                runs[-1] = [start, 2, value - start]
                continue
            if value == start + step * count:
                runs[-1][1] += 1
                continue
        runs.append([value, 1, 0])
    return runs


def encode_record_index(object_records):
    """Group an OID → record-extent map by extent, in first-seen
    order: ``[[offset, length, [[start, count, step], …]], …]``."""
    by_extent = {}
    for oid, extent in object_records.items():
        by_extent.setdefault(extent, []).append(oid)
    return [[offset, length, build_arith_runs(oids)]
            for (offset, length), oids in by_extent.items()]


def decode_record_index(raw):
    """Expand index entries back to the per-OID map, as a mount did."""
    object_records = {}
    for offset, length, runs in raw:
        object_records.update(
            dict.fromkeys(expand_arith_runs(runs), (offset, length)))
    return object_records


def adopt_records(child, victim, needed):
    """Forward the victim's records into ``child`` (a dict, edited in
    place) one OID at a time: an OID the child rewrote keeps the
    child's record, one outside ``needed`` is dropped.  Returns the
    counts forwarded and dropped."""
    forwarded = dropped = 0
    for oid, extent in victim.items():
        if oid in child:
            continue
        if needed is not None and oid not in needed:
            dropped += 1
            continue
        child[oid] = extent
        forwarded += 1
    return forwarded, dropped

"""Reference model of the page-locator table: one entry per page.

The per-page dict that :class:`repro.objstore.checkpoint.PageRuns`
replaced, kept as the oracle of ``tests/test_pageruns.py`` — nothing
under ``src/`` imports it.  A page map is ``{pindex: locator}`` with
locators ``("syn", seed)`` / ``("ext", extent, byte_off, length)``.
"""


def ref_overlay(newer, older):
    """Newest-wins union, one ``setdefault`` per page."""
    merged = dict(newer)
    for pindex, locator in older.items():
        merged.setdefault(pindex, locator)
    return merged


def ref_expand(runs):
    """Run entries (wire form) back to the per-page map."""
    page_map = {}
    for kind, start, count, *rest in runs:
        for i in range(count):
            if kind == "syn":
                page_map[start + i] = ("syn", rest[0] + rest[1] * i)
            else:
                page_map[start + i] = ("ext", rest[0],
                                       rest[1] + rest[2] * i, rest[2])
    return page_map


def ref_encode(page_map):
    """Wire form of a per-page map: pages appended in index order, each
    joining the run before it when it continues the pattern (the second
    page of a synthetic run pins its seed step)."""
    entries = []
    for pindex in sorted(page_map):
        kind, *loc = page_map[pindex]
        last = entries[-1] if entries else None
        joins = (last is not None and last[0] == kind
                 and last[1] + last[2] == pindex)
        if kind == "syn":
            if joins and last[2] == 1:
                last[4] = loc[0] - last[3]
            if joins and loc[0] == last[3] + last[4] * last[2]:
                last[2] += 1
            else:
                entries.append(["syn", pindex, 1, loc[0], 0])
        elif (joins and last[3] == loc[0] and last[5] == loc[2]
              and last[4] + last[5] * last[2] == loc[1]):
            last[2] += 1
        else:
            entries.append(["ext", pindex, 1, loc[0], loc[1], loc[2]])
    return entries


def ref_changed(map_a, map_b):
    """Pages whose locator differs (or that only one map holds)."""
    return sum(map_a.get(pindex) != map_b.get(pindex)
               for pindex in set(map_a) | set(map_b))

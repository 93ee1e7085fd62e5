"""Run algebra for the checkpoint hot path.

Page sets travel through the store as *runs* over sorted indexes
instead of page-at-a-time dict traffic.  The store sorts a flush
item's dirty set once, while packing it into extents, and builds the
object's page-locator table as runs there; every reader — mount,
``merged_view``, GC adoption, restore, ``sls diff`` — works on those
runs with the interval algebra below, so its cost tracks the run count
(a handful for sequential writers) rather than the page count.  Live
OID sets are run-encoded the same way, with a stride.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable, List, Sequence


def build_arith_runs(indexes: Iterable[int]) -> List[List[int]]:
    """Coalesce indexes into ``[start, count, step]`` arithmetic runs.

    Runs with a constant stride, not just adjacent indexes — OID
    allocations interleave classes, so a live set's per-class OIDs
    step by a small constant rather than by 1.
    The second element of a run pins its step (as in the synthetic
    page-run encoding); the greedy choice can split an optimal run but
    never changes what the runs expand back to.
    """
    runs: List[List[int]] = []
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


def expand_arith_runs(runs: Iterable[List[int]]) -> List[int]:
    """Flatten ``[start, count, step]`` runs back to indexes."""
    out: List[int] = []
    for start, count, step in runs:
        out.extend(start + step * i for i in range(count))
    return out


# -- page-locator runs --------------------------------------------------------
#
# A page-locator run describes ``count`` consecutive page indexes whose
# locators follow one arithmetic pattern — the shape the checkpoint
# metadata document stores and :class:`~repro.objstore.checkpoint.PageRuns`
# keeps in memory::
#
#     ("syn", start, count, seed0, seed_step)
#     ("ext", start, count, extent, byte_off0, page_len)
#
# Fields 1 and 2 (start, count) mean the same for both kinds, so the
# interval algebra below never looks past them except to clip.

LocatorRun = Sequence[Any]


def clip_run(run: Sequence[Any], lo: int, hi: int) -> LocatorRun:
    """The part of ``run`` covering page indexes ``[lo, hi)`` (which
    must lie inside it)."""
    skip = lo - run[1]
    if run[0] == "syn":
        return ("syn", lo, hi - lo, run[3] + run[4] * skip, run[4])
    return ("ext", lo, hi - lo, run[3], run[4] + run[5] * skip, run[5])


def uncovered_runs(runs: Sequence[Sequence[Any]],
                   cover: Sequence[Sequence[Any]],
                   cover_starts: Sequence[int]) -> List[LocatorRun]:
    """The pieces of ``runs`` that no run of ``cover`` overlaps.

    Both lists are sorted and disjoint; ``cover_starts`` is ``cover``'s
    start column.  One bisect per run plus one step per overlapped
    cover run: O(len(runs) · log len(cover) + overlaps).
    """
    pieces: List[LocatorRun] = []
    ncover = len(cover)
    for run in runs:
        lo = run[1]
        hi = lo + run[2]
        at = bisect_right(cover_starts, lo)
        if at:
            covered_to = cover[at - 1][1] + cover[at - 1][2]
            if covered_to > lo:
                lo = covered_to
        while lo < hi:
            if at == ncover or cover_starts[at] >= hi:
                pieces.append(clip_run(run, lo, hi))
                break
            if cover_starts[at] > lo:
                pieces.append(clip_run(run, lo, cover_starts[at]))
            lo = cover_starts[at] + cover[at][2]
            at += 1
    return pieces


def append_locator_run(runs: List[List[Any]], run: Sequence[Any]) -> None:
    """Append ``run`` (starting at or after the end of ``runs[-1]``) the
    way appending its pages one at a time would coalesce them.

    The rule is greedy: a synthetic page joins the run before it when
    it is adjacent and continues the seed progression — the *second*
    page of a run pins its step — and a real page joins when it is the
    next slot of the same extent.  Encoding goes through here, so the
    bytes of a metadata document depend only on the page map, never on
    how overlays cut it into runs.
    """
    kind, start, count = run[0], run[1], run[2]
    last = runs[-1] if runs else None
    if last is not None and last[0] == kind and last[1] + last[2] == start:
        if kind == "ext":
            if (last[3] == run[3] and last[5] == run[5]
                    and last[4] + last[5] * last[2] == run[4]):
                last[2] += count
                return
        else:
            seed0, step = run[3], run[4]
            if last[2] == 1:
                last[4] = seed0 - last[3]
            if seed0 == last[3] + last[4] * last[2]:
                if count == 1 or step == last[4]:
                    last[2] += count
                    return
                # Only the first page continues the progression.
                last[2] += 1
                run = ("syn", start + 1, count - 1, seed0 + step, step)
    entry = list(run)
    if entry[0] == "syn" and entry[2] == 1:
        entry[4] = 0
    runs.append(entry)


def synthetic_runs(indexes: Sequence[int],
                   seeds: Sequence[int]) -> List[List[Any]]:
    """``"syn"`` runs of an all-synthetic page set given as two columns
    (ascending page indexes, their seeds): what one
    :func:`append_locator_run` per page builds — the same greedy rule,
    hence the same metadata bytes — without a call and a tuple per page.
    """
    runs: List[List[Any]] = []
    start = count = seed0 = step = 0
    for pindex, seed in zip(indexes, seeds):
        if count and pindex == start + count:
            if count == 1:
                step = seed - seed0     # the second page pins the step
            if seed == seed0 + step * count:
                count += 1
                continue
        if count:
            runs.append(["syn", start, count, seed0, step])
        start, count, seed0, step = pindex, 1, seed, 0
    if count:
        runs.append(["syn", start, count, seed0, step])
    return runs


def _pages_differing(run_a: Sequence[Any], run_b: Sequence[Any],
                     lo: int, hi: int) -> int:
    """Page indexes in ``[lo, hi)`` (inside both runs) whose locators
    differ."""
    span = hi - lo
    if run_a[0] != run_b[0]:
        return span
    a, b = clip_run(run_a, lo, hi), clip_run(run_b, lo, hi)
    if a[0] == "ext":
        return 0 if a[3:] == b[3:] else span
    gap, slope = b[3] - a[3], a[4] - b[4]
    if slope == 0 or span == 1:
        return 0 if gap == 0 else span
    # Two distinct progressions agree on at most one page.
    meet, rest = divmod(gap, slope)
    return span - 1 if rest == 0 and 0 <= meet < span else span


def count_changed_pages(runs_a: Sequence[Sequence[Any]],
                        runs_b: Sequence[Sequence[Any]]) -> int:
    """Page indexes whose locator differs between two sorted, disjoint
    run lists (present in only one, or different in both) — one sweep,
    O(len(runs_a) + len(runs_b))."""
    changed = 0
    done = 0    # every index below this is accounted for
    ia = ib = 0
    while ia < len(runs_a) and ib < len(runs_b):
        run_a, run_b = runs_a[ia], runs_b[ib]
        lo_a, hi_a = max(run_a[1], done), run_a[1] + run_a[2]
        lo_b, hi_b = max(run_b[1], done), run_b[1] + run_b[2]
        lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
        if lo < hi:
            changed += lo - min(lo_a, lo_b)
            changed += _pages_differing(run_a, run_b, lo, hi)
        else:
            hi = min(hi_a, hi_b)
            changed += hi - (lo_a if hi_a < hi_b else lo_b)
        done = hi
        if hi_a == hi:
            ia += 1
        if hi_b == hi:
            ib += 1
    for run in (*runs_a[ia:], *runs_b[ib:]):    # one of the two is empty
        changed += run[1] + run[2] - max(run[1], done)
    return changed

"""Run algebra for the checkpoint hot path.

Page sets travel through the store as *runs* over sorted indexes
instead of page-at-a-time dict traffic.  The store sorts a flush
item's dirty set once, while packing it into extents, and builds the
object's page-locator table as runs there; every reader — mount,
``merged_view``, GC adoption, restore, ``sls diff`` — works on those
runs with the interval algebra below, so its cost tracks the run count
(a handful for sequential writers) rather than the page count.  Live
OID sets are run-encoded the same way, with a stride.

Every sorted run list — a VM object's content, a transaction's staged
runs, a checkpoint's locator table — is edited by one primitive,
:func:`splice`, and searched by one bisect, :func:`run_index`.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Any, Iterable, List, Optional, Sequence, Tuple


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
    start = count = step = 0
    for value in sorted(indexes):
        if count == 1:
            step, count = value - start, 2
        elif count and value == start + step * count:
            count += 1
        else:
            if count:
                runs.append([start, count, step])
            start, count, step = value, 1, 0
    if count:
        runs.append([start, count, step])
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
# Fields 1 and 2 (start, count) mean the same for every kind, so the
# interval algebra below never looks past them except to clip.  A VM
# object holds two kinds of run (see ``kernel/vm/vmobject.py``): a
# synthetic run with one more field, whether it is dirty, which clipping
# keeps, and a real page's one-page run ``("page", pindex, 1, page,
# locator)``, which no clip inside it changes.  An evicted run no
# checkpoint holds yet carries one more field too, set
# (``kernel/swap.py``), which clipping keeps as well.  A *bare span*
# ``(None, start, count)`` names indexes without content: in a cover it
# only cuts.

LocatorRun = Sequence[Any]

#: The sort key of runs and spans: their start index.
run_start = itemgetter(1)
_KIND = itemgetter(0)    # None for a bare span


def clip_run(run: Sequence[Any], lo: int, hi: int) -> LocatorRun:
    """The part of ``run`` covering page indexes ``[lo, hi)`` (which
    must lie inside it)."""
    skip = lo - run[1]
    if run[0] == "syn":
        return ("syn", lo, hi - lo, run[3] + run[4] * skip, run[4], *run[5:])
    if run[0] == "ext":
        return ("ext", lo, hi - lo, run[3], run[4] + run[5] * skip,
                *run[5:])
    return run    # a real page: one page, so any clip inside it is itself


def bare_spans(runs: Sequence[LocatorRun]) -> List[LocatorRun]:
    """The indexes ``runs`` hold, as bare spans: a cover that only
    cuts."""
    return [(None, run[1], run[2]) for run in runs]


def run_index(runs: Sequence[LocatorRun], pindex: int, lo: int = 0,
              hi: Optional[int] = None) -> int:
    """The index of the first run of ``runs[lo:hi]`` (sorted, disjoint)
    that ends after ``pindex`` — the run holding it, when one does (else
    ``hi``, or the next run): one bisect."""
    if hi is None:
        hi = len(runs)
    at = bisect_right(runs, pindex, lo, hi, key=run_start)
    if at > lo and runs[at - 1][1] + runs[at - 1][2] > pindex:
        at -= 1
    return at


def run_at(runs: Sequence[LocatorRun], pindex: int) -> Optional[LocatorRun]:
    """The run of ``runs`` (sorted, disjoint) holding ``pindex``."""
    at = run_index(runs, pindex)
    if at < len(runs) and runs[at][1] <= pindex:
        return runs[at]
    return None


def runs_within(runs: Sequence[LocatorRun], lo: int,
                hi: int) -> List[LocatorRun]:
    """The pieces of ``runs`` (sorted, disjoint) inside page indexes
    ``[lo, hi)``: one bisect, then a step per run, and at most two
    clips."""
    if lo >= hi:
        return []
    first = stop = run_index(runs, lo)
    while stop < len(runs) and runs[stop][1] < hi:
        stop += 1
    picked = list(runs[first:stop])
    if picked and picked[0][1] < lo:
        head = picked[0]
        picked[0] = clip_run(head, lo, min(head[1] + head[2], hi))
    if picked and picked[-1][1] + picked[-1][2] > hi:
        picked[-1] = clip_run(picked[-1], picked[-1][1], hi)
    return picked


def splice(runs: Sequence[LocatorRun], cover: Sequence[LocatorRun]
           ) -> Tuple[List[LocatorRun], int]:
    """Lay ``cover`` over ``runs`` (both sorted, disjoint): the runs are
    cut where a cover span falls, and the cover entries that are runs
    are spliced in — a bare span only cuts.  Returns the new list and
    how many pages the cut took from ``runs``.

    At most one bisect per span that meets a run, one per stretch of
    spans that meet none, and one clip per piece a cut leaves: whatever
    lies between the cuts — runs or spans — is moved as a slice, never
    visited, so an edit costs O(cuts · log), not O(runs + spans).
    """
    if not runs:
        return list(filter(_KIND, cover)), 0
    out, stop, cut = splice_window(runs, cover, 0)
    out += runs[stop:]
    return out, cut


def splice_window(runs: Sequence[LocatorRun], cover: Sequence[LocatorRun],
                  first: int) -> Tuple[List[LocatorRun], int, int]:
    """:func:`splice` from ``runs[first]`` on, no run before it ending
    after ``cover[0]`` starts: returns the list that replaces
    ``runs[first:stop]``, ``stop`` and the pages cut — a list edited in
    place keeps the runs outside the window as they are."""
    out: List[LocatorRun] = []
    end, ncover = len(runs), len(cover)
    cut = i = rest = 0
    pos = first
    carry: Optional[LocatorRun] = None  # a run a span cut, uncut from rest
    while i < ncover:
        span = cover[i]
        lo = span[1]
        hi = lo + span[2]
        if carry is not None and carry[1] + carry[2] <= lo:
            out.append(clip_run(carry, rest, carry[1] + carry[2]))
            carry = None
        if carry is None:
            if pos < end and runs[pos][1] + runs[pos][2] <= lo:
                at = run_index(runs, lo, pos + 1, end)
                out += runs[pos:at]
                pos = at
            if pos == end or runs[pos][1] >= hi:
                # This span and those after it that end before the next
                # run meet no run.
                stop = ncover if pos == end \
                    else run_index(cover, runs[pos][1], i + 1)
                out += filter(_KIND, cover[i:stop])
                i = stop
                continue
            carry, rest = runs[pos], runs[pos][1]
            pos += 1
        while carry is not None and rest < hi:
            carry_end = carry[1] + carry[2]
            if rest < lo:
                out.append(clip_run(carry, rest, lo))
            cut += min(carry_end, hi) - max(rest, lo)
            if carry_end > hi:
                rest = hi
            elif pos < end and runs[pos][1] < hi:
                carry, rest = runs[pos], runs[pos][1]
                pos += 1
            else:
                carry = None
        if span[0] is not None:
            out.append(span)
        i += 1
    if carry is not None:
        out.append(clip_run(carry, rest, carry[1] + carry[2]))
    return out, pos, cut


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
    # A VM object's synthetic run carries its dirty flag: not a locator
    # field.
    entry = list(run[:5] if kind == "syn" else run)
    if kind == "syn" and entry[2] == 1:
        entry[4] = 0
    runs.append(entry)


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

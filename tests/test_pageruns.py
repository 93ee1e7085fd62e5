"""The columnar page-locator table against its per-page reference model.

:class:`PageRuns` keeps a checkpoint's page map as runs; the model in
``tests/pageruns_reference.py`` keeps one entry per page.  Random
build / overlay chains / slice / lookup / encode→decode must agree
page for page, the encoded bytes must not depend on how overlays cut
the runs, GC adoption must hand over exactly the extents the per-page
loop did, and a migration stream must be a function of the delta's
content alone.  ``runs.splice``, the cut every overlay goes through, is
held to the interval subtraction it replaced and to the page model.
So are the pageout daemon's evicted runs, through evictions, page-ins,
lazy registration and collapses in both directions.
"""

from __future__ import annotations

from itertools import zip_longest
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.pageruns_reference import (ref_changed, ref_collapse, ref_encode,
                                      ref_expand, ref_overlay, uncovered_runs)
from repro import Machine, load_aurora, serde
from repro.core import migration
from repro.core.restore import GroupRestorer
from repro.core.runs import append_locator_run, splice
from repro.errors import CorruptRecord
from repro.hw.memory import Page
from repro.kernel.vm.vmobject import VMObject, page_run
from repro.objstore import records
from repro.objstore.checkpoint import (NO_PAGES, CheckpointInfo, PageRuns,
                                       decode_page_table, encode_page_table)
from repro.objstore.oid import CLASS_MEMORY, CLASS_POSIX, make_oid
from repro.objstore.scrub import CHECKSUM, scrub
from repro.objstore.store import ObjectStore
from repro.units import PAGE_SIZE
from tests.content import held_pages, page_runs

SPACE = 96      # page indexes the random runs draw from
MEM_OID = make_oid(CLASS_MEMORY, 1)
POSIX_OID = make_oid(CLASS_POSIX, 2)


# -- strategies ------------------------------------------------------------------

_syn_runs = st.tuples(
    st.just("syn"), st.integers(0, SPACE - 1), st.integers(1, 24),
    st.integers(0, 40), st.sampled_from((0, 1, 1, 1, 2, -1)))
_ext_runs = st.tuples(
    st.just("ext"), st.integers(0, SPACE - 1), st.integers(1, 24),
    st.sampled_from((65536, 131072)), st.sampled_from((0, 4096, 8192)),
    st.sampled_from((4096, 100)))
_runs = st.lists(st.one_of(_syn_runs, _ext_runs), max_size=12)


def _model_locator(loc):
    """A one-page locator run in the model's per-page form."""
    return loc and ref_expand([loc])[loc[1]]


def _as_map(table):
    """A :class:`PageRuns` expanded to the model's per-page form."""
    return ref_expand(table.runs)


def _written(runs):
    """(table, model) after writing ``runs`` in order, newest wins."""
    table, model = NO_PAGES, {}
    for run in runs:
        table = PageRuns([run]).overlay(table)
        model = ref_overlay(ref_expand([run]), model)
    return table, model


def _check_invariants(table):
    end = 0
    for run in table.runs:
        assert run[2] >= 1 and run[1] >= end
        end = run[1] + run[2]


# -- the table against the model ------------------------------------------------


@given(_runs)
@settings(max_examples=200, deadline=None)
def test_overlay_chain_matches_the_per_page_model(runs):
    table, model = _written(runs)
    _check_invariants(table)
    assert _as_map(table) == model
    assert len(table) == len(model) and bool(table) == bool(model)
    for pindex in range(SPACE + 26):
        assert _model_locator(table.lookup(pindex)) == model.get(pindex)
    assert table.extents() == {loc[1] for loc in model.values()
                               if loc[0] == "ext"}


@given(_runs)
@settings(max_examples=200, deadline=None)
def test_encoding_depends_only_on_the_page_map(runs):
    """However the overlays cut the runs, the wire form is the one the
    per-page encoder produced, and it decodes back to the same table."""
    table, model = _written(runs)
    wire = table.encode()
    assert wire == ref_encode(model)
    back = decode_page_table(serde.loads(serde.dumps(
        encode_page_table({MEM_OID: table})))).get(MEM_OID, NO_PAGES)
    assert back == table and _as_map(back) == model
    # Appending page by page (the commit path) coalesces the same way.
    paged = []
    for pindex, loc in sorted(model.items()):
        if loc[0] == "syn":
            append_locator_run(paged, ("syn", pindex, 1, loc[1], 0))
        else:
            append_locator_run(paged, ("ext", pindex, 1) + loc[1:])
    assert paged == wire


_payloads = st.one_of(
    st.tuples(st.just("syn"), st.integers(0, 40),
              st.sampled_from((0, 1, 2, -1))),
    st.tuples(st.just("ext"), st.sampled_from((65536, 131072)),
              st.sampled_from((0, 4096)), st.sampled_from((4096, 100))))


def _laid_out(payloads):
    """``[(gap, count, payload)]`` laid end to end from a start index: a
    sorted, disjoint entry list."""
    return st.tuples(st.integers(0, 10), st.lists(
        st.tuples(st.integers(0, 6), st.integers(1, 12), payloads),
        max_size=10)).map(_lay_out)


def _lay_out(drawn):
    at, layout = drawn
    entries = []
    for gap, count, (kind, *rest) in layout:
        at += gap
        entries.append((kind, at, count, *rest))
        at += count
    return entries


@given(_laid_out(_payloads),
       _laid_out(st.one_of(_payloads, st.just((None,)))))
@settings(max_examples=300, deadline=None)
def test_splice_is_the_interval_subtraction_and_the_page_model(older, cover):
    """The one cut-and-overlay primitive against its two oracles: the
    interval subtraction it replaced, merged with the cover's runs, and
    the per-page newest-wins model — pages cut included.  A bare span
    ``(None, start, count)`` only cuts."""
    spliced, cut = splice(older, cover)
    cover_runs = [span for span in cover if span[0] is not None]
    assert spliced == sorted(cover_runs + uncovered_runs(older, cover),
                             key=lambda run: run[1])
    covered = {pindex for span in cover
               for pindex in range(span[1], span[1] + span[2])}
    older_map = ref_expand(older)
    assert cut == len(covered & older_map.keys())
    expected = {pindex: loc for pindex, loc in older_map.items()
                if pindex not in covered}
    expected.update(ref_expand(cover_runs))
    table = PageRuns(spliced)
    _check_invariants(table)
    assert _as_map(table) == expected


@given(_runs, _runs)
@settings(max_examples=200, deadline=None)
def test_overlay_of_two_tables_is_newest_wins(newer_runs, older_runs):
    newer, newer_model = _written(newer_runs)
    older, older_model = _written(older_runs)
    merged = newer.overlay(older)
    _check_invariants(merged)
    assert _as_map(merged) == ref_overlay(newer_model, older_model)
    assert newer.changed_pages(older) == ref_changed(newer_model,
                                                     older_model)
    assert newer.changed_pages(newer) == 0


@given(_runs, st.integers(-2, SPACE + 30), st.integers(-2, SPACE + 30))
@settings(max_examples=200, deadline=None)
def test_slice_restricts_to_the_index_range(runs, lo, hi):
    table, model = _written(runs)
    part = table.slice(lo, hi)
    _check_invariants(part)
    assert _as_map(part) == {pindex: loc for pindex, loc in model.items()
                             if lo <= pindex < hi}


def test_lookup_returns_the_pages_own_locator():
    table = PageRuns([("syn", 4, 3, 10, 2), ("ext", 9, 2, 65536, 8192, 4096)])
    assert table.lookup(3) is None and table.lookup(7) is None
    assert table.lookup(6) == ("syn", 6, 1, 14, 2)
    assert table.lookup(10) == ("ext", 10, 1, 65536, 12288, 4096)
    assert table.lookup(11) is None


# -- decode strictness ------------------------------------------------------------


def _page_table(*tables):
    """A metadata document's page table holding each run list under its
    own OID, laid out as ``encode_page_table`` lays runs out (a
    synthetic run's fifth integer field 0) but with none of its
    coalescing, so a damaged run list goes into the table as it is."""
    runs = [run for table in tables for run in table]
    kinds, *fields = zip_longest(*runs, fillvalue=0) if runs else [()]
    fields += [(0,) * len(runs)] * (5 - len(fields))
    return [[MEM_OID + index for index in range(len(tables))],
            [len(table) for table in tables], list(kinds),
            [cell for field in fields for cell in field]]


def _with(table, at, column):
    table = list(table)
    table[at] = column
    return table


_ONE_RUN = [["ext", 0, 4, 65536, 0, 4096]]


@pytest.mark.parametrize("raw, complaint", [
    (_page_table([["syn", 0, 4, 1, 1], ["syn", 2, 4, 9, 1]]), "overlaps"),
    (_page_table([["syn", 8, 2, 1, 1], ["syn", 0, 2, 9, 1]]), "unsorted"),
    (_page_table([["ext", 0, 2, 65536, 0, 4096], ["syn", 1, 1, 5, 0]]),
     "overlaps"),
    (_page_table([["syn", 0, 0, 1, 0]]), "count 0"),
    (_page_table([["ext", 3, -2, 65536, 0, 4096]]), "count -2"),
    # A ``bool`` is not an integer field.
    (_page_table([["syn", 0, 4, True, 1]]), "malformed"),
    # Three columns, and a column that is not a list.
    (_page_table(_ONE_RUN)[:3], "malformed"),
    (_with(_page_table(_ONE_RUN), 3, "0"), "malformed"),
    (_page_table([["syn", 0, "4", 1, 1]]), "malformed"),
    (_page_table([["raw", 0, 1, 1, 1]]), "bad page run kind"),
    # An OID listed with no run, or with a negative run count.
    (_page_table([]), "empty"),
    (_with(_page_table(_ONE_RUN, []), 1, [2, -1]), "empty"),
    # The page map as a dict keyed by ``str(oid)``.
    ({"0": [["syn", 0, 1, 1, 0]]}, "not a list"),
    # Every field after the kind is an integer: a string seed or a
    # ``None`` extent would only fail later, at the first lookup.
    (_page_table([["syn", 0, 2, "x", None]]), "malformed"),
    (_page_table([["ext", 0, 1, None, 0, 4096]]), "malformed"),
    # Columns of unequal length: the run fields one short, run counts
    # that do not sum to the run columns' length, an OID column one long.
    (_with(_page_table(_ONE_RUN * 2), 3, [0] * 9), "differ in length"),
    (_with(_page_table(_ONE_RUN), 1, [2]), "differ in length"),
    (_with(_page_table(_ONE_RUN), 0, [MEM_OID, MEM_OID + 1]),
     "differ in length"),
    (_with(_page_table(_ONE_RUN, _ONE_RUN), 0, [MEM_OID] * 2), "repeats"),
    # A kind that cannot be hashed is a bad kind, not a crash.
    (_with(_page_table(_ONE_RUN), 2, [["ext"]]), "bad page run kind"),
])
def test_decode_rejects_a_malformed_run_list(raw, complaint):
    with pytest.raises(CorruptRecord, match=complaint):
        decode_page_table(raw)


def test_decode_keeps_the_runs_without_expanding_them():
    raw = _page_table([["syn", 0, 1 << 40, 5, 1],
                       ["ext", 1 << 41, 3, 65536, 0, 4096]],
                      [["ext", 0, 1, 65536, 4096, 4096]])
    pages = decode_page_table(raw)
    table = pages[MEM_OID]
    assert len(table.runs) == 2 and len(table) == (1 << 40) + 3
    assert table.lookup((1 << 40) - 1)[3] == 5 + (1 << 40) - 1
    # Each OID's runs are checked apart: the second table may start
    # below where the first one ends.
    assert pages[MEM_OID + 1].runs == [("ext", 0, 1, 65536, 4096, 4096)]
    assert table.runs[0] == ("syn", 0, 1 << 40, 5, 1)


def _chain(store, rounds, parent=None):
    infos = []
    for pages in rounds:
        txn = store.begin_checkpoint(group_id=5, parent=parent)
        txn.put_object(POSIX_OID, "proc", {"round": len(infos)})
        txn.put_pages(MEM_OID, page_runs(pages))
        infos.append(store.commit(txn, sync=True))
        parent = infos[-1].ckpt_id
    return infos


def test_overlapping_runs_on_media_fall_back_and_are_scrubbed():
    """A metadata record whose runs overlap is corrupt metadata: mount
    falls back a superblock generation, scrub names the checkpoint."""
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    first, second = _chain(store, [{0: Page(seed=1), 1: Page(seed=2)},
                                   {1: Page(seed=9)}])
    # The document as read back from media (``encode_meta`` splices
    # the record index in as an encoded fragment).
    meta = serde.loads(serde.dumps(second.encode_meta()))
    meta["pages"] = _page_table([["syn", 0, 2, 1, 1], ["syn", 1, 1, 9, 0]])
    with pytest.raises(CorruptRecord, match="overlaps"):
        CheckpointInfo.decode_meta(meta)
    payload = records.encode(records.REC_CKPT_META, meta)
    machine.storage.discard_extent(second.meta_extent[0])
    machine.storage.write(second.meta_extent[0], payload)

    report = scrub(store)
    assert [f.kind for f in report.findings
            if f.ckpt_id == second.ckpt_id] == [CHECKSUM]
    assert "overlaps" in report.findings[0].detail

    machine.crash()
    machine.boot()
    recovered = ObjectStore(machine)
    assert recovered.mount()
    assert list(recovered.checkpoints) == [first.ckpt_id]


# -- the commit path builds the same runs -------------------------------------------

_page_rounds = st.lists(
    st.dictionaries(
        st.integers(0, 40),
        st.one_of(st.integers(1, 60).map(lambda seed: ("syn", seed)),
                  st.integers(0, 255).map(lambda byte: ("real", byte))),
        min_size=1, max_size=36),
    min_size=1, max_size=5)


def _staged(round_pages):
    return {pindex: (Page(seed=value) if kind == "syn"
                     else Page(data=bytes([value]) * 64))
            for pindex, (kind, value) in round_pages.items()}


@given(_page_rounds, st.data())
@settings(max_examples=60, deadline=None)
def test_commit_and_gc_build_the_tables_the_per_page_code_did(rounds, data):
    """``_pack_pages`` writes the runs the per-page encoder derived;
    GC adoption hands a child exactly the per-page loop's extents and
    view, on media too."""
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    infos = _chain(store, [_staged(pages) for pages in rounds])
    for info, pages in zip(infos, rounds):
        table = info.pages[MEM_OID]
        assert sorted(_as_map(table)) == sorted(pages)
        assert [list(run) for run in table.runs] == table.encode() == \
            ref_encode(_as_map(table))
        for pindex, (kind, value) in pages.items():
            page = store.fetch_page(table.lookup(pindex))
            assert (page.seed == value if kind == "syn"
                    else page.data[:64] == bytes([value]) * 64)

    for victim, child in zip(infos, infos[1:data.draw(
            st.integers(1, len(infos)))]):
        victim_map, child_map = (_as_map(victim.pages[MEM_OID]),
                                 _as_map(child.pages[MEM_OID]))
        adopted = {loc[1] for pindex, loc in victim_map.items()
                   if pindex not in child_map and loc[0] == "ext"}
        owned_before = {offset for offset, _len in child.owned_extents}
        store.delete_checkpoint(victim.ckpt_id)
        assert _as_map(child.pages[MEM_OID]) == ref_overlay(child_map,
                                                            victim_map)
        gained = {offset for offset, _len in child.owned_extents}
        assert gained - owned_before == adopted
        assert scrub(store).ok

    survivors = {info.ckpt_id: {oid: _as_map(table)
                                for oid, table in info.pages.items()}
                 for info in store.checkpoints.values()}
    machine.crash()
    machine.boot()
    remounted = ObjectStore(machine)
    assert remounted.mount()
    assert {ckpt_id: {oid: _as_map(table)
                      for oid, table in info.pages.items()}
            for ckpt_id, info in remounted.checkpoints.items()} == survivors


# -- migration streams: canonical and complete ------------------------------------------


def _restored_heap(sls, group_id, addr, **where):
    root = sls.restore(group_id, **where).root
    return root.vmspace.read(addr, 64 * PAGE_SIZE)


def test_stream_is_a_function_of_content_and_restores_identically():
    """Two stores holding the same delta under different checkpoint
    ids and extent offsets serialise it to identical bytes, and
    ``recv(send(x))`` restores what the sender would — full and
    incremental, synthetic and real pages, a ``sls_memckpt`` partial
    on top."""
    from repro.core.api import AuroraAPI

    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("mover")
    addr = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 64, seed=3)
    group = sls.attach(proc, periodic=False)
    gid = group.group_id
    sls.checkpoint(group, sync=True)
    for step, (start, count) in enumerate([(4, 20), (10, 3), (30, 8),
                                           (12, 30)]):
        proc.vmspace.touch(addr + start * PAGE_SIZE, count, seed=100 * step)
        proc.vmspace.write(addr + (start + 1) * PAGE_SIZE,
                           b"real-%d" % step)
        # Adjacent real pages written by different checkpoints sit in
        # different extents here, in one extent after a full receive.
        proc.vmspace.write(addr + (50 + step) * PAGE_SIZE,
                           b"adjacent-%d" % step)
        sls.checkpoint(group, sync=True)
    proc.vmspace.write(addr + 2 * PAGE_SIZE, b"partial")
    AuroraAPI(sls, proc).sls_memckpt(addr, 64 * PAGE_SIZE, sync=True)
    chain = sls.store.checkpoints_for(gid, include_partial=True)
    assert chain[-1].partial
    expected = proc.vmspace.read(addr, 64 * PAGE_SIZE)

    # The follower's store already holds another group's checkpoints:
    # every id and extent offset differs from the sender's.
    follower = load_aurora(Machine())
    txn = follower.store.begin_checkpoint(group_id=gid + 1)
    txn.put_pages(MEM_OID, page_runs({0: Page(data=b"someone else's")}))
    follower.store.commit(txn, sync=True)
    for info in chain:
        stream = migration.serialize_checkpoint(
            sls, gid, ckpt_id=info.ckpt_id, since=info.parent)
        local = migration.recv_checkpoint(follower, stream)
        assert local != info.ckpt_id
        mine = follower.store.get_checkpoint(local)
        assert mine.owned_extents != info.owned_extents
        assert mine.live_oids == sls.store.effective_live_oids(info.ckpt_id)
        assert migration.serialize_checkpoint(
            follower, gid, ckpt_id=local, since=mine.parent) == stream
    full = migration.serialize_checkpoint(sls, gid)
    assert migration.serialize_checkpoint(follower, gid) == full
    assert not {"ckpt_id", "since"} & set(serde.loads(full))

    # A full receive packs what arrived as six deltas into one: same
    # content, same bytes back out.
    fresh = load_aurora(Machine())
    migration.recv_checkpoint(fresh, full)
    assert migration.serialize_checkpoint(fresh, gid) == full

    assert _restored_heap(follower, gid, addr) == expected
    assert _restored_heap(fresh, gid, addr) == expected
    # An older point of the incrementally received chain, too.
    middle = chain[2]
    local_ids = [i.ckpt_id for i in follower.store.checkpoints_for(gid)]
    assert _restored_heap(follower, gid, addr, ckpt_id=local_ids[2]) == \
        _restored_heap(sls, gid, addr, ckpt_id=middle.ckpt_id)


# -- the pageout daemon's evicted runs ----------------------------------------------

_SIZE = 200     # pages per VM object; laid-out runs end before this


def _content(page):
    return ("seed", page.seed) if page.synthetic else ("data", page.realize())


def _evicted_map(store, pageout, obj):
    """``obj``'s evicted runs as ``{pindex: content}``, each "ext" page
    read back from the store."""
    runs = pageout.evicted.get(obj.kid, [])
    _check_invariants(PageRuns(runs))
    return {pindex: ("seed", loc[1]) if loc[0] == "syn"
            else _content(store.fetch_page(("ext", pindex, 1, *loc[1:])))
            for pindex, loc in ref_expand(runs).items()}


_evict_ops = st.lists(st.one_of(
    # Writes stay low, where they overlap each other and lazy layouts.
    st.tuples(st.just("write"), st.booleans(), st.integers(0, 24),
              st.integers(1, 12),
              st.sampled_from(["clean-run", "dirty-run", "clean-page",
                               "real"]),
              st.integers(0, 1000)),
    st.tuples(st.just("evict"), st.booleans(), st.integers(1, 16)),
    st.tuples(st.just("page-in"), st.booleans(), st.integers(0, 1 << 16)),
    st.tuples(st.just("lazy"), _laid_out(st.tuples(
        st.just("syn"), st.integers(0, 40), st.sampled_from((0, 1, 2))))),
    st.tuples(st.just("collapse"), st.sampled_from(["reverse", "forward"]))),
    max_size=25)


#: The newer object evicts over an older page and an older run.
_SHADOW_EVICTS = [("write", False, 0, 2, "clean-page", 10),
                  ("write", False, 2, 2, "dirty-run", 20),
                  ("write", True, 1, 2, "real", 99), ("evict", True, 2)]


@given(_evict_ops)
@example(_SHADOW_EVICTS + [("collapse", "reverse")])
@example(_SHADOW_EVICTS + [("collapse", "forward")])
@settings(max_examples=300, deadline=None)
def test_evicted_runs_match_the_per_page_model(ops):
    """A two-object shadow chain under writes, evictions (clean pages
    without IO, dirty ones through the store), page-ins, lazy
    registration and collapses in both directions: each object's
    evicted runs, expanded, are the per-page model's, they never overlap
    what the object holds, and the chain reads what the model's first
    holder of each index — resident or evicted — says."""
    machine = Machine()
    store = load_aurora(machine).store
    kernel = machine.kernel
    pageout = kernel.pageout
    pageout.HIGH_WATERMARK = 0.0
    baseline = kernel.physmem.used_frames
    base = VMObject(kernel, _SIZE)
    top = base.shadow()
    model = {"top": ({}, {}), "base": ({}, {})}
    for op in ops:
        kind = op[0]
        if kind in ("write", "evict", "page-in"):
            role = "top" if op[1] else "base"
            obj = top if op[1] else base
            resident, evicted = model[role]
        if kind == "write":
            _kind, _which, start, count, how, seed = op
            count = min(count, _SIZE - start)
            span = range(start, start + count)
            if how.endswith("-run"):
                obj.insert([("syn", start, count, seed, 1,
                             how == "dirty-run")])
                made = {p: ("seed", seed + p - start) for p in span}
            else:
                pages = {p: Page(seed=seed + p) if how == "clean-page"
                         else Page(data=b"%d" % (seed + p)) for p in span}
                obj.insert([page_run(p, page, ("syn", p, 1, page.seed, 0)
                                     if page.synthetic else None)
                            for p, page in sorted(pages.items())])
                made = {p: _content(page) for p, page in pages.items()}
            resident.update(made)
            for pindex in made:
                evicted.pop(pindex, None)
        elif kind == "evict":
            before = held_pages(obj)
            used = kernel.physmem.used_frames
            pageout.LOW_WATERMARK = max(used - op[2], 0) / \
                kernel.physmem.total_frames
            pageout.run_pageout([obj], store=store)
            for pindex in before.keys() - held_pages(obj).keys():
                evicted[pindex] = resident.pop(pindex)
        elif kind == "page-in":
            if evicted:
                pindex = sorted(evicted)[op[2] % len(evicted)]
                pageout.page_in(obj, pindex, store)
                resident[pindex] = evicted.pop(pindex)
        elif kind == "lazy":
            top.destroy()
            base.destroy()
            base = VMObject(kernel, _SIZE)
            restorer = SimpleNamespace(kernel=kernel, pages_lazy=0,
                                       page_locs={1: PageRuns(list(op[1]))})
            GroupRestorer.populate_pages(restorer, base, 1, lazy=True)
            top = base.shadow()
            model = {"top": ({}, {}), "base": ({}, {
                pindex: ("seed", loc[1])
                for pindex, loc in ref_expand(op[1]).items()})}
        elif op[1] == "reverse":
            top.collapse_into_parent()
            top = base.shadow()
            model = {"top": ({}, {}),
                     "base": ref_collapse(model["top"], model["base"])}
        else:
            top.collapse_forward()
            base, top = top, top.shadow()
            model = {"top": ({}, {}),
                     "base": ref_collapse(model["top"], model["base"])}

        for role, obj in (("top", top), ("base", base)):
            resident, evicted = model[role]
            held = {p: _content(page) for p, page in held_pages(obj).items()}
            assert held == resident, (role, op)
            assert _evicted_map(store, pageout, obj) == evicted, (role, op)
        assert kernel.physmem.used_frames - baseline == \
            len(model["top"][0]) + len(model["base"][0])
        for pindex in range(_SIZE):
            page, _depth, owner = top.lookup_page(pindex)
            for role, obj in (("top", top), ("base", base)):
                resident, evicted = model[role]
                if pindex in resident or pindex in evicted:
                    assert owner is obj
                    assert (page and _content(page)) == resident.get(pindex)
                    break
            else:
                assert page is None and owner is None

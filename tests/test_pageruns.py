"""The columnar page-locator table against its per-page reference model.

:class:`PageRuns` keeps a checkpoint's page map as runs; the model in
``tests/pageruns_reference.py`` keeps one entry per page.  Random
build / overlay chains / slice / lookup / encode→decode must agree
page for page, the encoded bytes must not depend on how overlays cut
the runs, GC adoption must hand over exactly the extents the per-page
loop did, and a migration stream must be a function of the delta's
content alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.pageruns_reference import (ref_changed, ref_encode, ref_expand,
                                      ref_overlay)
from repro import Machine, load_aurora, serde
from repro.core import migration
from repro.core.runs import append_locator_run, synthetic_runs
from repro.errors import CorruptRecord
from repro.hw.memory import Page
from repro.objstore import records
from repro.objstore.checkpoint import (NO_PAGES, CheckpointInfo, PageRuns,
                                       decode_page_runs)
from repro.objstore.oid import CLASS_MEMORY, CLASS_POSIX, make_oid
from repro.objstore.scrub import CHECKSUM, scrub
from repro.objstore.store import ObjectStore
from repro.units import PAGE_SIZE

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
    if loc is None or loc.kind == "syn":
        return loc and ("syn", loc.seed)
    return ("ext", loc.extent, loc.byte_off, loc.length)


def _as_map(table):
    """A :class:`PageRuns` expanded to the model's per-page form."""
    return {pindex: _model_locator(loc) for pindex, loc in table.items()}


def _written(runs):
    """(table, model) after writing ``runs`` in order, newest wins."""
    table, model = NO_PAGES, {}
    for run in runs:
        table = PageRuns([run]).overlay(table)
        model = ref_overlay(ref_expand([run]), model)
    return table, model


def _check_invariants(table):
    end = 0
    for run, start in zip(table.runs, table.starts):
        assert run[1] == start and run[2] >= 1 and start >= end
        end = start + run[2]


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
    back = decode_page_runs(serde.loads(serde.dumps(wire)))
    assert back == table and _as_map(back) == model
    # Appending page by page (the commit path) coalesces the same way.
    paged = []
    for pindex, loc in sorted(model.items()):
        if loc[0] == "syn":
            append_locator_run(paged, ("syn", pindex, 1, loc[1], 0))
        else:
            append_locator_run(paged, ("ext", pindex, 1) + loc[1:])
    assert paged == wire


@given(st.lists(_syn_runs, max_size=12))
@settings(max_examples=200, deadline=None)
def test_synthetic_columns_coalesce_like_page_by_page_appends(runs):
    """The commit path hands an all-synthetic delta over as two columns;
    the runs (hence the metadata bytes) are the per-page appends'."""
    _table, model = _written(runs)
    ordered = sorted(model)
    paged = []
    for pindex in ordered:
        append_locator_run(paged, ("syn", pindex, 1, model[pindex][1], 0))
    assert synthetic_runs(ordered,
                          [model[pindex][1] for pindex in ordered]) == paged


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
    assert table.lookup(6).seed == 14
    last = table.lookup(10)
    assert (last.extent, last.byte_off, last.length) == (65536, 12288, 4096)
    assert table.lookup(11) is None


# -- decode strictness ------------------------------------------------------------


@pytest.mark.parametrize("raw, complaint", [
    ([["syn", 0, 4, 1, 1], ["syn", 2, 4, 9, 1]], "overlaps"),
    ([["syn", 8, 2, 1, 1], ["syn", 0, 2, 9, 1]], "unsorted"),
    ([["ext", 0, 2, 65536, 0, 4096], ["syn", 1, 1, 5, 0]], "overlaps"),
    ([["syn", 0, 0, 1, 0]], "count 0"),
    ([["ext", 3, -2, 65536, 0, 4096]], "count -2"),
    ([["syn", 0, 4, 1]], "malformed"),
    ([["ext", 0, 4, 65536, 0]], "malformed"),
    ([["syn", 0, 4, 1, 1, 7]], "malformed"),
    ([["syn", 0, "4", 1, 1]], "malformed"),
    ([["raw", 0, 1, 1, 1]], "bad page run kind"),
    ([[]], "empty"),
    ([7], "empty"),
    ({"0": ["syn", 0, 1, 1, 0]}, "not a list"),
])
def test_decode_rejects_a_malformed_run_list(raw, complaint):
    with pytest.raises(CorruptRecord, match=complaint):
        decode_page_runs(raw)


def test_decode_keeps_the_runs_without_expanding_them():
    raw = [["syn", 0, 1 << 40, 5, 1], ["ext", 1 << 41, 3, 65536, 0, 4096]]
    table = decode_page_runs(raw)
    assert len(table.runs) == 2 and len(table) == (1 << 40) + 3
    assert table.lookup((1 << 40) - 1).seed == 5 + (1 << 40) - 1


def _chain(store, rounds, parent=None):
    infos = []
    for pages in rounds:
        txn = store.begin_checkpoint(group_id=5, parent=parent)
        txn.put_object(POSIX_OID, "proc", {"round": len(infos)})
        txn.put_pages(MEM_OID, pages)
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
    meta = second.encode_meta()
    meta["pages"][str(MEM_OID)] = [["syn", 0, 2, 1, 1], ["syn", 1, 1, 9, 0]]
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
    txn.put_pages(MEM_OID, {0: Page(data=b"someone else's")})
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

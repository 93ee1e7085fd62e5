"""Dirty synthetic memory held as runs, from ``touch`` to the store.

Three guards on the run form of dirty content:

(a) staging a synthetic stretch as a run packs exactly as staging its
    pages does — run tables, metadata bytes, extents, IO and clock —
    so the store's output depends only on the page map, however the
    flush cut it;
(b) run edits cost O(edit): a collapse splices a shadow's spans into
    an object of thousands of runs, and a ``touch`` writes into it,
    with a bounded number of clips and bisects per span — the runs
    between the spans are never visited;
(c) a migration stream's synthetic runs are staged as they travel: a
    receive builds no ``Page``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.core import migration
from repro.core import runs as runs_mod
from repro.core.runs import run_start
from repro.hw.memory import Page
from repro.kernel.vm import vmobject as vmobject_mod
from repro.kernel.vm.vmobject import VMObject
from repro.objstore.store import ObjectStore
from repro.units import PAGE_SIZE
from tests.content import page_runs
from tests.test_pack_pages import staged_sets


def _split(pages, as_run):
    """``{pindex: (kind, value)}`` as sorted runs: the synthetic pages
    ``as_run`` picks are staged as greedy arithmetic runs, the others as
    one-page runs."""
    made, runs = {}, []
    for pindex in sorted(pages):
        kind, value = pages[pindex]
        if kind == "real":
            made[pindex] = Page(data=value)
        elif not as_run(pindex):
            made[pindex] = Page(seed=value)
        elif (runs and runs[-1][1] + runs[-1][2] == pindex
              and (runs[-1][2] == 1
                   or value == runs[-1][3] + runs[-1][4] * runs[-1][2])):
            last = runs[-1]
            step = value - last[3] if last[2] == 1 else last[4]
            runs[-1] = ("syn", last[1], last[2] + 1, last[3], step)
        else:
            runs.append(("syn", pindex, 1, value, 0))
    return sorted(page_runs(made) + runs, key=run_start)


def _commit(staged, as_run):
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    txn = store.begin_checkpoint(group_id=1)
    for oid, pages in staged.items():
        txn.put_pages(oid, _split(pages, as_run))
    info = store.commit(txn, sync=True)
    return {
        "runs": {oid: [list(run) for run in table.runs]
                 for oid, table in info.pages.items()},
        "extents": list(info.owned_extents),
        "data_bytes": info.data_bytes,
        "io": [(dev.bytes_written, dev.write_commands)
               for dev in store.device.devices],
        "clock": machine.clock.now(),
        "meta": store.device.read(info.meta_extent[0]),
        "data": [store.device.read(offset)
                 for offset, _length in info.owned_extents],
    }


@settings(max_examples=150, deadline=None)
@given(staged=staged_sets(), picks=st.lists(st.booleans(), min_size=1))
def test_staged_runs_pack_as_their_pages(staged, picks):
    def as_run(pindex):
        return picks[pindex % len(picks)]
    assert _commit(staged, as_run) == _commit(staged, lambda _p: False)


def _counting(monkeypatch, module, name, calls):
    plain = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return plain(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


SPANS = 64
RUNS = 4096


def test_run_edits_cost_the_edit(monkeypatch):
    machine = Machine()
    kernel = machine.kernel
    size = 3 * RUNS
    base = VMObject(kernel, size, name="base")
    # Every third page is a hole: 4 096 runs that never coalesce.
    base.insert([("syn", 3 * i, 2, 100 * i, 1, False) for i in range(RUNS)])
    shadow = base.shadow()
    stride = size // SPANS
    shadow.insert([("syn", stride * i + 1, 5, 7 * i, 1, False)
                   for i in range(SPANS)])
    space = kernel.spawn("p").vmspace
    calls = {}
    with monkeypatch.context() as patch:
        for module in (vmobject_mod, runs_mod):
            for name in ("clip_run", "bisect_left", "bisect_right"):
                if hasattr(module, name):
                    _counting(patch, module, name, calls)
        parent, moved = shadow.collapse_into_parent()
        collapse = dict(calls)
        calls.clear()
        addr = space.mmap(size * PAGE_SIZE, vmobject=parent, name="w")
        space.touch(addr + (size // 2) * PAGE_SIZE, SPANS, seed=9)
        touch = dict(calls)
    assert moved == 5 * SPANS
    bisects = ("bisect_left", "bisect_right")
    # O(spans): at most one bisect and two clips per span cut.
    assert sum(collapse.get(name, 0) for name in bisects) <= SPANS
    assert collapse.get("clip_run", 0) <= 2 * SPANS
    # One range looked up and one run spliced in.
    assert sum(touch.get(name, 0) for name in bisects) <= 2
    assert touch.get("clip_run", 0) <= 2
    # And the content is what the edits wrote.
    assert parent.page_at(1).seed == 0 and parent.page_at(2).seed == 1
    assert parent.page_at(stride + 5).seed == 11
    assert parent.page_at(size // 2 + 3).seed == 12
    assert parent.page_at(size // 2 + SPANS).seed == \
        100 * ((size // 2 + SPANS) // 3) + 1
    parent.unref()


def test_synthetic_stream_is_received_without_pages(monkeypatch):
    src = Machine()
    src_sls = load_aurora(src)
    proc = src.kernel.spawn("heap")
    addr = proc.vmspace.mmap(4096 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 4096, seed=5)
    group = src_sls.attach(proc, periodic=False)
    src_sls.checkpoint(group, sync=True)
    proc.vmspace.touch(addr + 100 * PAGE_SIZE, 300, seed=77)
    src_sls.checkpoint(group, sync=True)
    stream = migration.serialize_checkpoint(src_sls, group.group_id)

    dst = Machine()
    dst_sls = load_aurora(dst)
    built = []
    plain_init = Page.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        plain_init(self, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(Page, "__init__", counting_init)
        ckpt_id = migration.recv_checkpoint(dst_sls, stream)
    assert not built
    # The receiver holds the sender's delta: it streams the same bytes.
    assert migration.serialize_checkpoint(dst_sls, group.group_id,
                                          ckpt_id) == stream
    result = dst_sls.restore(group.group_id, ckpt_id=ckpt_id,
                             periodic=False)
    for pindex, seed in ((0, 5), (100, 77), (399, 376), (400, 405)):
        assert result.root.vmspace.read(addr + pindex * PAGE_SIZE, 32) == \
            proc.vmspace.read(addr + pindex * PAGE_SIZE, 32)
        assert result.root.vmspace.entry_at(addr).vmobject.visible_page(
            pindex).seed == seed

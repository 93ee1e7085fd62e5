"""Stretch-wise page packing equals the per-page walk it replaced.

``ObjectStore._pack_pages`` splits each object's sorted index column at
its real pages and coalesces every synthetic stretch as two columns;
``tests/pack_reference.py`` keeps the page-at-a-time original.  Both
commit the same randomized mixes of synthetic and real pages — real
pages first, last and adjacent, seed progressions that continue across
a real page or restart, real batches that fill a stripe and span
objects — and must leave identical run lists, metadata bytes, extents,
IO, clean marks and simulated clock.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro import Machine
from repro.hw.memory import SYNTHETIC_CLEAN, Page
from repro.objstore.oid import CLASS_MEMORY, make_oid
from repro.objstore.store import ObjectStore
from tests.pack_reference import pack_pages_per_page

#: Page kinds an object draws from: the mix varies per object.
MIXES = (("syn",), ("syn", "real"), ("syn", "syn", "syn", "real", "restart"),
         ("real",), ("real", "real", "real", "syn"))


@st.composite
def staged_sets(draw):
    """``{oid: {pindex: ("syn", seed) | ("real", bytes)}}``."""
    staged = {}
    for serial in range(1, draw(st.integers(1, 3)) + 1):
        mix = draw(st.sampled_from(MIXES))
        base = draw(st.integers(0, 2 ** 30))
        step = draw(st.sampled_from((0, 1, 3, -2)))
        pindex = draw(st.integers(0, 40))
        pages = {}
        for _ in range(draw(st.integers(1, 48))):
            kind = draw(st.sampled_from(mix))
            if kind == "real":
                pages[pindex] = ("real", b"r%d" % pindex)
            else:
                if kind == "restart":
                    base = draw(st.integers(0, 2 ** 30))
                # A function of the index: a progression continues
                # across a real page or a gap.
                pages[pindex] = ("syn", base + step * pindex)
            pindex += draw(st.sampled_from((1, 1, 1, 2, 5)))
        staged[make_oid(CLASS_MEMORY, serial)] = pages
    return staged


def _commit(staged):
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    txn = store.begin_checkpoint(group_id=1)
    flushed = []
    for oid, pages in staged.items():
        made = {pindex: Page(seed=value) if kind == "syn" else Page(data=value)
                for pindex, (kind, value) in pages.items()}
        flushed.extend(made[pindex] for pindex in sorted(made))
        txn.put_pages(oid, made)
    info = store.commit(txn, sync=True)
    devices = store.device.devices
    outcome = {
        "runs": {oid: [list(run) for run in table.runs]
                 for oid, table in info.pages.items()},
        "extents": list(info.owned_extents),
        "data_bytes": info.data_bytes,
        "io": [(dev.bytes_written, dev.write_commands) for dev in devices],
        "clock": machine.clock.now(),
        "clean": [mark if mark is SYNTHETIC_CLEAN
                  else (mark.kind, mark.extent, mark.byte_off, mark.length)
                  for mark in (page.clean_locator for page in flushed)],
    }
    outcome["meta"] = store.device.read(info.meta_extent[0])
    outcome["data"] = [store.device.read(offset)
                       for offset, _length in info.owned_extents]
    return outcome


@settings(max_examples=150, deadline=None)
@given(staged_sets())
@example({make_oid(CLASS_MEMORY, 1): {0: ("real", b"a"), 1: ("syn", 5),
                                      2: ("syn", 6), 3: ("real", b"b"),
                                      4: ("real", b"c"), 5: ("syn", 9)}})
@example({make_oid(CLASS_MEMORY, 1): {pindex: ("real", b"x")
                                      for pindex in range(40)}})
def test_stretchwise_packing_matches_the_per_page_walk(staged):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ObjectStore, "_pack_pages", pack_pages_per_page)
        reference = _commit(staged)
    assert _commit(staged) == reference

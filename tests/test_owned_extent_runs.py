"""Owned extents on media: ``[offset, count, length]`` runs, expanded back.

:func:`encode_extent_runs` coalesces contiguous equal-length extents in
list order; :func:`decode_extent_runs` expands them back to the exact
``(offset, length)`` list GC, scrub and repair read.  Any order must
round-trip — GC adoption appends a deleted parent's (lower) extents
after the child's own — and a CRC-valid document with a malformed run is
corrupt metadata: mount falls back a superblock generation.  The size
pin keeps a large contiguous write's owned extents O(runs) on media.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora, serde
from repro.errors import CorruptRecord
from repro.hw.memory import Page
from repro.objstore import records
from repro.objstore.checkpoint import (CheckpointInfo, decode_extent_runs,
                                       encode_extent_runs)
from repro.objstore.oid import CLASS_MEMORY, make_oid
from repro.objstore.store import ObjectStore
from repro.units import MiB, PAGE_SIZE
from tests.content import page_runs

MEM_OID = make_oid(CLASS_MEMORY, 1)

#: One step of an extent list: the next extent of the current run
#: (contiguous, same length), contiguous with a new length, after a
#: gap, or anywhere at all (lower offsets included).
_steps = st.lists(st.one_of(
    st.just(("next",)),
    st.tuples(st.just("relength"), st.integers(1, 1 << 20)),
    st.tuples(st.just("gap"), st.integers(1, 1 << 20)),
    st.tuples(st.just("jump"), st.integers(0, 1 << 40),
              st.integers(1, 1 << 20))), max_size=60)


def _extents(first, steps):
    offset, length = first
    extents = [first]
    for step in steps:
        end = offset + length
        if step[0] == "next":
            offset = end
        elif step[0] == "relength":
            offset, length = end, step[1]
        elif step[0] == "gap":
            offset = end + step[1]
        else:
            offset, length = step[1], step[2]
        extents.append((offset, length))
    return extents


@given(st.tuples(st.integers(0, 1 << 40), st.integers(1, 1 << 20)), _steps)
@settings(max_examples=200, deadline=None)
def test_runs_expand_to_the_exact_extent_list(first, steps):
    extents = _extents(first, steps)
    runs = encode_extent_runs(extents)
    assert decode_extent_runs(serde.loads(serde.dumps(runs))) == extents
    # One run per extent that does not continue its predecessor's run.
    breaks = sum(1 for prev, cur in zip(extents, extents[1:])
                 if cur != (prev[0] + prev[1], prev[1]))
    assert len(runs) == 1 + breaks


@pytest.mark.parametrize("extents, runs", [
    ([], []),
    ([(65536, 4096)], [[65536, 1, 4096]]),
    ([(0, 8), (8, 8), (16, 8), (24, 4)], [[0, 3, 8], [24, 1, 4]]),
    ([(0, 8), (16, 8), (24, 8)], [[0, 1, 8], [16, 2, 8]]),
    ([(100, 10), (110, 10), (0, 10), (10, 10)], [[100, 2, 10], [0, 2, 10]]),
])
def test_runs_of_hand_picked_lists(extents, runs):
    assert encode_extent_runs(extents) == runs
    assert decode_extent_runs(runs) == extents


_BAD_RUNS = [
    [[4096, 0, 4096]],            # zero count
    [[4096, 1, -4096]],           # negative length
    [[4096, 2, 0]],               # zero length
    [[4096, "2", 4096]],          # not an int
    [[4096, True, 4096]],         # a bool is not a count
    [[4096, 1, 4096, 0]],         # wrong arity
    [[4096, 4096]],               # a bare pair
    [7],                          # not a run
    {"0": [4096, 1, 4096]},       # not a list
]


@pytest.mark.parametrize("raw", _BAD_RUNS)
def test_decode_rejects_a_malformed_run(raw):
    with pytest.raises(CorruptRecord, match="malformed owned-extent run"):
        decode_extent_runs(raw)


def _chain(store):
    infos, parent = [], None
    for seed in (1, 9):
        txn = store.begin_checkpoint(group_id=5, parent=parent)
        txn.put_pages(MEM_OID, page_runs({0: Page(seed=seed),
                                          1: Page(seed=seed + 1)}))
        infos.append(store.commit(txn, sync=True))
        parent = infos[-1].ckpt_id
    return infos


@pytest.mark.parametrize("bad", _BAD_RUNS[:6])
def test_a_malformed_run_on_media_falls_back_a_generation(bad):
    """A CRC-valid metadata record whose owned-extent run is malformed
    fails ``decode_meta``; the mount then takes the older superblock."""
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    first, second = _chain(store)
    # The document as read back from media (``encode_meta`` splices
    # the record index in as an encoded fragment).
    meta = serde.loads(serde.dumps(second.encode_meta()))
    meta["owned_extents"] = bad
    with pytest.raises(CorruptRecord, match="malformed owned-extent run"):
        CheckpointInfo.decode_meta(meta)
    machine.storage.discard_extent(second.meta_extent[0])
    machine.storage.write(second.meta_extent[0],
                          records.encode(records.REC_CKPT_META, meta))

    machine.crash()
    machine.boot()
    recovered = ObjectStore(machine)
    assert recovered.mount()
    assert list(recovered.checkpoints) == [first.ckpt_id]
    assert recovered.checkpoints[first.ckpt_id].owned_extents == \
        first.owned_extents


def test_sixteen_mib_of_contiguous_pages_own_a_few_runs():
    """One checkpoint of 16 MiB of freshly written memory encodes its
    owned extents in at most 256 B (one pair per extent took 8 514 B
    for its 257 extents), and they round-trip through a remount."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("writer")
    npages = 16 * MiB // PAGE_SIZE
    addr = proc.vmspace.mmap(npages * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, npages, seed=3)
    group = sls.attach(proc, periodic=False)
    info = sls.checkpoint(group, sync=True).info
    assert sum(length for _off, length in info.owned_extents) >= 16 * MiB
    encoded = serde.dumps(info.encode_meta()["owned_extents"])
    assert len(encoded) <= 256, (len(encoded), len(info.owned_extents))
    owned = list(info.owned_extents)
    machine.crash()
    machine.boot()
    sls = load_aurora(machine)
    assert sls.store.checkpoints[info.ckpt_id].owned_extents == owned

"""Reference model for the commit path's page packing: the per-page
original.

:func:`pack_pages_per_page` is ``ObjectStore._pack_pages`` walking
every staged page on its own: a synthetic page is one
``append_locator_run`` call, a real page one slot of the pending
stripe payload.  Production code splits the sorted index column at the
real pages and coalesces each synthetic stretch as two columns
(``runs.synthetic_runs``); ``tests/test_pack_pages.py`` patches this
model over the production method and holds the two to identical run
lists, metadata bytes, extents, IO and simulated clock.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core import costs
from repro.core.runs import append_locator_run
from repro.hw.memory import Page
from repro.hw.nvme import synthetic_payload
from repro.objstore.checkpoint import PageRuns
from repro.units import PAGE_SIZE, STRIPE_SIZE


def pack_pages_per_page(self, txn) -> int:
    """``ObjectStore._pack_pages``, one page at a time."""
    info = txn.info
    last_done = self.clock.now()
    real_batch: List[Page] = []
    batch_runs: List[Tuple[List[Any], int]] = []

    def flush_real() -> None:
        nonlocal last_done, real_batch, batch_runs
        if not real_batch:
            return
        payload = b"".join(page.realize() for page in real_batch)
        extent = self.alloc.alloc(len(payload))
        info.owned_extents.append((extent, len(payload)))
        self.clock.advance(costs.STORE_ALLOC_EXTENT)
        done = self.retry.run(
            lambda: self.device.submit_write(extent, payload),
            op="store.flush")
        last_done = max(last_done, done)
        info.data_bytes += len(payload)
        for run, slot in batch_runs:
            run[3], run[4] = extent, slot * PAGE_SIZE
        real_batch, batch_runs = [], []

    for oid, pages in txn.staged_pages.items():
        runs: List[Any] = []
        info.pages[oid] = PageRuns(runs)
        syn_count = 0
        for pindex in sorted(pages):
            page = pages[pindex]
            if page.synthetic:
                append_locator_run(runs, ("syn", pindex, 1, page.seed, 0))
                syn_count += 1
                continue
            last = runs[-1] if runs else None
            if (batch_runs and last is batch_runs[-1][0]
                    and last[1] + last[2] == pindex):
                last[2] += 1
            else:
                runs.append(["ext", pindex, 1, None, None, PAGE_SIZE])
                batch_runs.append((runs[-1], len(real_batch)))
            real_batch.append(page)
            if len(real_batch) * PAGE_SIZE >= STRIPE_SIZE:
                flush_real()

        remaining = syn_count * PAGE_SIZE
        while remaining > 0:
            chunk = min(remaining, STRIPE_SIZE)
            extent = self.alloc.alloc(chunk)
            info.owned_extents.append((extent, chunk))
            self.clock.advance(costs.STORE_ALLOC_EXTENT)
            syn_extent, syn_chunk = extent, chunk
            done = self.retry.run(
                lambda: self.device.submit_write(
                    syn_extent, synthetic_payload(seed=oid, length=syn_chunk)),
                op="store.flush")
            last_done = max(last_done, done)
            info.data_bytes += chunk
            remaining -= chunk
    flush_real()
    return last_done

"""Reference model for the commit path's page packing: the per-page,
per-stripe original.

:func:`pack_pages_per_page` is ``ObjectStore._pack_pages`` walking
every staged page on its own: a synthetic page is one
``append_locator_run`` call, a real page one slot of the pending
stripe payload, and an object's synthetic content is allocated and
written one stripe at a time (one ``alloc`` and one run of one per
stripe).  Production code walks the staged runs in the same
index-ordered pass, a synthetic run at a time, and allocates and
queues an object's synthetic stripes as one run;
``tests/test_pack_pages.py`` patches this model over the production
method and holds the two to identical run lists, metadata bytes,
extents, IO and simulated clock on staged one-page runs, and
``tests/test_dirty_runs.py`` holds staged runs to staging their pages.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Tuple

from repro.core.runs import append_locator_run
from repro.hw.memory import Page
from repro.hw.nvme import synthetic_payload
from repro.kernel.vm.vmobject import run_page
from repro.objstore.checkpoint import PageRuns
from repro.units import PAGE_SIZE, STRIPE_SIZE


def pack_pages_per_page(self, txn) -> Iterator[Tuple[int, int, Any]]:
    """``ObjectStore._pack_pages``, one page and one stripe at a time:
    yields each extent's write as a run of one, allocated just
    before."""
    info = txn.info
    real_batch: List[Page] = []
    batch_runs: List[Tuple[List[Any], int]] = []

    def flush_real() -> Iterator[Tuple[int, int, Any]]:
        nonlocal real_batch, batch_runs
        if not real_batch:
            return
        payload = b"".join(page.realize() for page in real_batch)
        extent = self.alloc.alloc(len(payload))
        info.owned_extents.append((extent, len(payload)))
        yield extent, 1, payload
        info.data_bytes += len(payload)
        for run, slot in batch_runs:
            run[3], run[4] = extent, slot * PAGE_SIZE
        real_batch, batch_runs = [], []

    for oid, staged in txn.staged_runs.items():
        pages = {pindex: run_page(run, pindex) for run in staged
                 for pindex in range(run[1], run[1] + run[2])}
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
                yield from flush_real()

        remaining = syn_count * PAGE_SIZE
        while remaining > 0:
            chunk = min(remaining, STRIPE_SIZE)
            extent = self.alloc.alloc(chunk)
            info.owned_extents.append((extent, chunk))
            yield extent, 1, synthetic_payload(seed=oid, length=chunk)
            info.data_bytes += chunk
            remaining -= chunk
    yield from flush_real()

"""Test helpers that read and write VM content through its one form.

A VM object holds its content as runs (``kernel/vm/vmobject.py``), and a
checkpoint transaction stages runs.  Tests that think in pages — a dict
``{pindex: Page}`` — go through these helpers and the public readers
(``page_at``, ``holding``, ``content``), never the run list itself.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.core.runs import clip_run, run_at
from repro.hw.memory import Page
from repro.kernel.vm.vmobject import is_clean, page_run


def page_runs(pages: Mapping[int, Page]) -> List[Any]:
    """``{pindex: Page}`` as sorted, dirty one-page runs."""
    return [page_run(pindex, page) for pindex, page in sorted(pages.items())]


def held_pages(obj: Any) -> Dict[int, Page]:
    """Every page ``obj`` holds itself, by index (synthetic ones built)."""
    return {pindex: obj.page_at(pindex)
            for lo, hi in obj.holding([(0, obj.size_pages)])
            for pindex in range(lo, hi)}


def clean_mark(obj: Any, pindex: int) -> Optional[Any]:
    """The clean mark of the page ``obj`` holds at ``pindex``: None while
    it is dirty (or not held), else its locator as a one-page run — a
    real page's ``"ext"`` run, or the synthetic run its seed is."""
    run = run_at(obj.content(), pindex)
    if run is None or not is_clean(run):
        return None
    if run[0] == "page":
        return tuple(run[4])
    return ("syn", pindex, 1, clip_run(run, pindex, pindex + 1)[3], 0)

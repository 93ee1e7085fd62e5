"""Asynchronous IO tracking (§5.3 "Asynchronous IO").

Aurora quiesces in-flight AIOs at checkpoint time: file-system *writes*
are not recorded — the checkpoint simply isn't marked complete until
they land — while *reads* are recorded in the checkpoint so the restore
path reissues them.  Failed AIOs update the checkpoint with their
status.  The queue below models exactly those three behaviours.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..errors import InvalidArgument

AIO_READ = "read"
AIO_WRITE = "write"

PENDING = "pending"
DONE = "done"
FAILED = "failed"


class AIORequest:
    """One in-flight asynchronous IO."""

    __slots__ = ("aio_id", "op", "file", "offset", "length", "status",
                 "error", "completion_time")

    def __init__(self, aio_id: int, op: str, file, offset: int, length: int):
        if op not in (AIO_READ, AIO_WRITE):
            raise InvalidArgument(f"bad AIO op {op}")
        self.aio_id = aio_id
        self.op = op
        self.file = file
        self.offset = offset
        self.length = length
        self.status = PENDING
        self.error: Optional[str] = None
        self.completion_time: Optional[int] = None


class AIOQueue:
    """Per-kernel registry of asynchronous IOs."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._ids = itertools.count(1)
        self.inflight: Dict[int, AIORequest] = {}
        self.completed: List[AIORequest] = []

    def submit(self, op: str, file, offset: int, length: int,
               duration_ns: int = 50_000) -> AIORequest:
        """Queue an asynchronous IO; completes via the event loop."""
        request = AIORequest(next(self._ids), op, file, offset, length)
        self.inflight[request.aio_id] = request
        request.completion_time = self.kernel.clock.now() + duration_ns
        self.kernel.loop.call_after(duration_ns,
                                    lambda r=request: self._complete(r))
        return request

    def _complete(self, request: AIORequest, error: Optional[str] = None) -> None:
        if request.aio_id not in self.inflight:
            return
        del self.inflight[request.aio_id]
        request.status = FAILED if error else DONE
        request.error = error
        self.completed.append(request)

    def fail(self, request: AIORequest, error: str) -> None:
        """Force-fail an in-flight AIO (used by failure-injection tests;
        the checkpoint must record the failure status, §5.3)."""
        self._complete(request, error=error)

    def quiesce(self) -> dict:
        """Checkpoint-time treatment of in-flight AIOs.

        Returns the serializable AIO state: pending *reads* (to be
        reissued on restore) and the set of pending *write* ids the
        orchestrator must wait on before marking the checkpoint
        complete.
        """
        pending_reads = []
        pending_write_ids = []
        for request in self.inflight.values():
            if request.op == AIO_READ:
                pending_reads.append({
                    "op": request.op,
                    "offset": request.offset,
                    "length": request.length,
                })
            else:
                pending_write_ids.append(request.aio_id)
        failed = [{"op": r.op, "offset": r.offset, "error": r.error}
                  for r in self.completed if r.status == FAILED]
        return {
            "reads": pending_reads,
            "write_barrier": pending_write_ids,
            "failed": failed,
        }

    def writes_drained(self, write_ids: List[int]) -> bool:
        """True when none of ``write_ids`` is still in flight."""
        return all(wid not in self.inflight for wid in write_ids)

"""Quiescing at the user/kernel boundary (§5.1).

Aurora's first prototype used SIGSTOP — incomplete (in-flight syscalls
keep mutating state) and visible (EINTR leaks).  The shipped mechanism,
reproduced here, extends the fork/exec rendezvous: IPIs force every
core running the application to the boundary; short syscalls are waited
out; sleeping syscalls are interrupted and their program counter is
rewound so the thread transparently reissues the call, with no EINTR
ever reaching userspace.
"""

from __future__ import annotations

from typing import List

from ..kernel.proc.thread import (AT_BOUNDARY, IN_SYSCALL,
                                  IN_SYSCALL_SLEEPING, Thread)
from . import costs


class QuiesceReport:
    """What one quiesce pass did (read by tests and benchmarks)."""

    __slots__ = ("threads", "ipis", "waited_syscalls", "restarted_syscalls",
                 "elapsed_ns")

    def __init__(self):
        self.threads = 0
        self.ipis = 0
        self.waited_syscalls = 0
        self.restarted_syscalls = 0
        self.elapsed_ns = 0


def quiesce_group(kernel, group) -> QuiesceReport:
    """Stop every thread of the group at the user/kernel boundary."""
    report = QuiesceReport()
    start = kernel.clock.now()
    threads: List[Thread] = list(group.all_threads())
    report.threads = len(threads)

    # IPI every core the group's threads could be running on.
    running_cores = min(len(threads), len(kernel.cpus))
    report.ipis = running_cores
    kernel.cpus.broadcast_ipi(running_cores)

    for thread in threads:
        kernel.clock.advance(costs.QUIESCE_PER_THREAD)
        if thread.location == IN_SYSCALL:
            # Non-sleeping syscalls finish quickly; wait them out.
            kernel.clock.advance(costs.QUIESCE_SYSCALL_RESIDUAL)
            report.waited_syscalls += 1
        elif thread.location == IN_SYSCALL_SLEEPING:
            # Interrupt and arm the transparent restart.
            kernel.clock.advance(costs.QUIESCE_SYSCALL_RESTART)
            report.restarted_syscalls += 1
        if thread.cpu_state.fpu_on_cpu:
            # Lazy-FPU cores must flush vector state to the process
            # structure before it can be serialized (§5.1).
            thread.cpu_state.fpu_on_cpu = False
        thread.park_at_boundary()
    report.elapsed_ns = kernel.clock.now() - start
    return report


def resume_group(kernel, group) -> int:
    """Release every parked thread; returns elapsed ns."""
    start = kernel.clock.now()
    for thread in group.all_threads():
        if thread.location == AT_BOUNDARY:
            kernel.clock.advance(costs.RESUME_PER_THREAD)
            thread.resume()
    return kernel.clock.now() - start


def assert_quiesced(group) -> bool:
    """True iff no group thread can mutate state (all at boundary)."""
    return all(t.location == AT_BOUNDARY for t in group.all_threads())

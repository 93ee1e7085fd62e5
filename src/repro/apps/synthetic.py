"""Synthetic application profiles for Table 6.

Table 6 measures how *OS-state complexity* — not application logic —
drives checkpoint stop times and restore times: "vim and pillow have
small memory footprints, but complex OS state including hundreds of
address space objects."  Each profile below reconstructs that state
shape: resident set size, number of VM map entries/objects, thread
count, process count and descriptor mix, taken from the paper's
description of each application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..units import KiB, MiB, PAGE_SIZE, pages_of


@dataclass
class AppProfile:
    """State-shape description of one application."""

    name: str
    resident_bytes: int
    #: Number of separate writable anonymous regions (address space
    #: objects): libraries' data segments, arenas, JIT regions, stacks.
    vm_regions: int
    nthreads: int
    nprocs: int
    #: Descriptor mix: (kind, count) with kind in
    #: {file, socket, pipe, kqueue, pty, shm}.
    fds: Tuple[Tuple[str, int], ...] = ()
    #: Fraction of the resident set the app dirties between idle-state
    #: checkpoints (Table 6 measures mostly idle applications).
    idle_dirty_fraction: float = 0.002


#: Profiles matching Table 6's applications.  Sizes come straight from
#: the table; structural counts follow each application's nature
#: (firefox: multiprocess browser; tomcat: JVM with many threads;
#: pillow/vim: small-footprint but fragmented address spaces; mosh: a
#: lean network client).
PROFILES: Dict[str, AppProfile] = {
    "firefox": AppProfile(
        name="firefox", resident_bytes=198 * MiB, vm_regions=320,
        nthreads=60, nprocs=4,
        fds=(("file", 40), ("socket", 48), ("pipe", 24), ("kqueue", 4),
             ("shm", 8)),
    ),
    "mosh": AppProfile(
        name="mosh", resident_bytes=24 * MiB, vm_regions=40,
        nthreads=4, nprocs=1,
        fds=(("file", 6), ("socket", 2), ("pty", 1)),
    ),
    "pillow": AppProfile(
        name="pillow", resident_bytes=75 * MiB, vm_regions=220,
        nthreads=4, nprocs=1,
        fds=(("file", 16),),
    ),
    "tomcat": AppProfile(
        name="tomcat", resident_bytes=197 * MiB, vm_regions=420,
        nthreads=220, nprocs=1,
        fds=(("file", 60), ("socket", 40), ("pipe", 8), ("kqueue", 2)),
    ),
    "vim": AppProfile(
        name="vim", resident_bytes=48 * MiB, vm_regions=180,
        nthreads=2, nprocs=1,
        fds=(("file", 10), ("pty", 1)),
    ),
}


class SyntheticApp:
    """A running instance built from a profile."""

    def __init__(self, kernel, profile: AppProfile):
        self.kernel = kernel
        self.profile = profile
        self.procs = []
        self.regions: List[Tuple[object, int, int]] = []  # (proc, addr, np)
        self._build()

    def _build(self) -> None:
        profile = self.profile
        root = self.kernel.spawn(profile.name)
        self.procs.append(root)
        for index in range(profile.nprocs - 1):
            self.procs.append(
                self.kernel.fork(root, name=f"{profile.name}-{index}"))

        # Spread the resident set over the profile's regions, across
        # its processes.
        total_pages = pages_of(profile.resident_bytes)
        regions_per_proc = max(profile.vm_regions // profile.nprocs, 1)
        pages_left = total_pages
        regions_left = profile.vm_regions
        seed = 0x5A9
        for proc in self.procs:
            for _ in range(regions_per_proc):
                if regions_left <= 0:
                    break
                npages = max(pages_left // regions_left, 1)
                addr = proc.vmspace.mmap(npages * PAGE_SIZE,
                                         name=f"region{regions_left}")
                proc.vmspace.fill(addr, npages, seed=seed)
                seed += npages
                self.regions.append((proc, addr, npages))
                pages_left -= npages
                regions_left -= 1

        # Threads (beyond each process's first).
        threads_left = profile.nthreads - len(self.procs)
        while threads_left > 0:
            for proc in self.procs:
                if threads_left <= 0:
                    break
                proc.add_thread()
                threads_left -= 1

        # Descriptors.
        for kind, count in profile.fds:
            for index in range(count):
                self._open_fd(root, kind, index)

    def _open_fd(self, proc, kind: str, index: int) -> None:
        kernel = self.kernel
        if kind == "file":
            path = f"/{self.profile.name}-file{index}"
            kernel.open(proc, path, flags=0x40 | 0x2)
        elif kind == "socket":
            kernel.tcp_socket(proc)
        elif kind == "pipe":
            kernel.pipe(proc)
        elif kind == "kqueue":
            kernel.kqueue(proc)
        elif kind == "pty":
            kernel.open_pty(proc)
        elif kind == "shm":
            fd = kernel.shm_open(proc, f"/{self.profile.name}-shm{index}",
                                 64 * KiB)
            kernel.shm_mmap(proc, fd)

    @property
    def root(self):
        """The profile's root process."""
        return self.procs[0]

    def idle_tick(self, seed: int) -> int:
        """Dirty the small working set an idle app touches between
        checkpoints; returns pages dirtied."""
        budget = max(int(pages_of(self.profile.resident_bytes)
                         * self.profile.idle_dirty_fraction), 1)
        dirtied = 0
        for proc, addr, npages in self.regions:
            if dirtied >= budget:
                break
            run = min(npages, budget - dirtied)
            proc.vmspace.touch(addr, run, seed=seed + dirtied)
            dirtied += run
        return dirtied

    def resident_pages(self) -> int:
        """Total resident pages across the app's processes."""
        seen = 0
        for proc in self.procs:
            seen += proc.vmspace.resident_pages()
        return seen

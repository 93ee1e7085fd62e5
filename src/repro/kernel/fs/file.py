"""Open files and file descriptor tables.

This module is where the paper's fd-sharing semantics live (§5.1
"File Descriptors"): an :class:`OpenFile` is FreeBSD's ``struct file``
— it owns the offset and open mode — while the underlying object (a
vnode, pipe end, socket, ...) is shared at another level entirely.

* ``open()`` twice on one path → two OpenFiles, one vnode: independent
  offsets, shared data.
* ``fork()`` / ``dup()`` / SCM_RIGHTS → one OpenFile in two tables or
  slots: *shared* offset.

Aurora checkpoints OpenFiles and vnodes as distinct first-class
objects, which is how it reproduces both relationships for free; the
CRIU baseline must rediscover them by cross-referencing.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from ...errors import BadFileDescriptor, InvalidArgument
from ..kobject import KObject
from .vnode import Vnode

O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_TRUNC = 0x200
O_APPEND = 0x400

#: OpenFile.ftype values (the kind of object behind the descriptor).
DTYPE_VNODE = "vnode"
DTYPE_PIPE = "pipe"
DTYPE_SOCKET = "socket"
DTYPE_KQUEUE = "kqueue"
DTYPE_PTS = "pts"
DTYPE_SHM = "shm"
DTYPE_DEVICE = "device"


class OpenFile(KObject):
    """An open file description (``struct file``): offset + mode + object."""

    obj_type = "file"

    def __init__(self, kernel: Any, fobj: KObject, ftype: str,
                 flags: int = O_RDWR) -> None:
        super().__init__(kernel)
        #: Assigned once; cleared only in :meth:`destroy`.
        self.fobj: Any = fobj
        self.ftype = ftype
        self.flags = flags
        self.offset = 0
        fobj.ref()
        #: External synchrony suppressed via sls_fdctl (§3).
        self.sls_nosync = False

    @property
    def vnode(self) -> Vnode:
        """The backing vnode (raises unless vnode-backed)."""
        if self.ftype != DTYPE_VNODE or not isinstance(self.fobj, Vnode):
            raise InvalidArgument("not a vnode-backed file")
        return self.fobj

    def readable(self) -> bool:
        """True when the open mode permits reads."""
        return (self.flags & 0x3) in (O_RDONLY, O_RDWR)

    def writable(self) -> bool:
        """True when the open mode permits writes."""
        return (self.flags & 0x3) in (O_WRONLY, O_RDWR)

    def destroy(self) -> None:
        """Last reference: close the object; reclaim orphan vnodes."""
        fobj = self.fobj
        self.fobj = None
        close_hook = getattr(fobj, "on_file_close", None)
        if close_hook is not None:
            close_hook()
        fobj.unref()
        if isinstance(fobj, Vnode) and fobj.link_count == 0 \
                and not fobj.destroyed and fobj.ref_count == 1:
            # Last open reference to an unlinked file: the conventional
            # filesystem reclaims it here.
            fobj.fs.forget_vnode(fobj)

    def __repr__(self) -> str:
        return f"OpenFile(kid={self.kid}, {self.ftype}, off={self.offset})"


class FDTable(KObject):
    """A process's descriptor table: small integers → OpenFile refs."""

    obj_type = "fdtable"

    def __init__(self, kernel: Any) -> None:
        super().__init__(kernel)
        self._fds: Dict[int, OpenFile] = {}
        #: Every descriptor below ``_high_water`` is either open or on
        #: ``_freed`` (a min-heap; an entry goes stale when an explicit
        #: install takes its descriptor, and is skipped when popped).
        self._freed: List[int] = []
        self._high_water = 0
        #: Bumped wherever a slot changes (``install``, ``close``); the
        #: checkpoint serializer replays its last walk of the table
        #: while this matches.  ``dirty_epoch`` cannot serve: two
        #: changes inside one epoch carry the same stamp.
        self.layout_gen = 0

    def _lowest_free(self) -> int:
        """POSIX lowest-numbered free descriptor, without scanning."""
        while self._freed:
            fd = heapq.heappop(self._freed)
            if fd not in self._fds:
                return fd
        return self._high_water

    def install(self, file: OpenFile, fd: Optional[int] = None) -> int:
        """Install an OpenFile, taking a reference; returns the fd."""
        if fd is None:
            fd = self._lowest_free()
        elif fd in self._fds:
            raise InvalidArgument(f"fd {fd} already in use")
        if fd >= self._high_water:
            for skipped in range(self._high_water, fd):
                heapq.heappush(self._freed, skipped)
            self._high_water = fd + 1
        file.ref()
        self._fds[fd] = file
        self.layout_gen += 1
        self.mark_dirty()
        return fd

    def get(self, fd: int) -> OpenFile:
        """The OpenFile at ``fd`` (EBADF when absent)."""
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFileDescriptor(f"fd {fd}")

    def dup(self, fd: int) -> int:
        """``dup(2)``: a second slot sharing the same OpenFile."""
        return self.install(self.get(fd))

    def dup2(self, fd: int, target: int) -> int:
        """dup2(2): duplicate onto a specific slot, closing any victim."""
        file = self.get(fd)
        if target in self._fds and self._fds[target] is not file:
            self.close(target)
        if target not in self._fds:
            self.install(file, fd=target)
        return target

    def close(self, fd: int) -> None:
        """Remove one fd slot, dropping its OpenFile reference."""
        file = self._fds.pop(fd, None)
        if file is None:
            raise BadFileDescriptor(f"fd {fd}")
        heapq.heappush(self._freed, fd)
        self.layout_gen += 1
        self.mark_dirty()
        file.unref()

    def close_all(self) -> None:
        """Close every slot (process exit)."""
        for fd in list(self._fds):
            self.close(fd)

    def fork_copy(self) -> "FDTable":
        """The fork(2) semantics: child shares every OpenFile."""
        child = FDTable(self.kernel)
        for fd, file in self._fds.items():
            file.ref()
            child._fds[fd] = file
        child._freed = list(self._freed)
        child._high_water = self._high_water
        return child

    def fds(self) -> List[int]:
        """The occupied descriptor numbers, sorted."""
        return sorted(self._fds)

    def files(self) -> List[OpenFile]:
        """The OpenFiles in fd order (duplicates included)."""
        return [self._fds[fd] for fd in sorted(self._fds)]

    def items(self) -> List[Tuple[int, OpenFile]]:
        """(fd, OpenFile) pairs in fd order."""
        return sorted(self._fds.items())

    def __len__(self) -> int:
        return len(self._fds)

    def __contains__(self, fd: int) -> bool:
        return fd in self._fds

    def destroy(self) -> None:
        """Last reference: close the object; reclaim orphan vnodes."""
        self.close_all()

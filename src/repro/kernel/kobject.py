"""Reference-counted kernel objects and the kernel object registry.

Aurora's POSIX object model hinges on kernel objects having *identity*:
a file descriptor shared through ``fork`` is the same object in two fd
tables, while two ``open`` calls on one file are two objects backed by
one vnode.  :class:`KObject` provides identity (a per-kernel serial
number), reference counting and a type tag; the orchestrator's
checkpoint pass walks objects by identity so every object is serialized
exactly once per checkpoint (§5.2, "This structure allows Aurora to
scan over all persistent objects and serialize each of them to storage
exactly once").
"""

from __future__ import annotations

import itertools
from typing import Any

from ..errors import InvalidArgument


class KObject:
    """Base class for every kernel object.

    ``kid`` is the kernel-lifetime-unique identity used as the key of
    Aurora's kernel-address → on-disk-object map.  ``obj_type`` names
    the object's row in ``core/objmodel.py``.
    """

    obj_type = "kobject"

    def __init__(self, kernel: Any):
        self.kernel: Any = kernel
        self.kid: int = kernel.next_kid()
        self.ref_count = 1
        self._destroyed = False
        #: Epoch of the last mutation (incremental checkpoints, §6).
        #: A freshly created object is dirty by construction: it is
        #: stamped with the kernel's current epoch, which is always
        #: above every group's checkpoint floor.
        self.dirty_epoch: int = getattr(kernel, "dirty_epoch", 1)

    def mark_dirty(self) -> None:
        """Stamp the object with the current mutation epoch.

        Every kernel path that changes checkpoint-visible state calls
        this; the serializer then skips objects whose ``dirty_epoch``
        is at or below the group's last-checkpoint epoch floor, making
        kernel-state checkpoint cost proportional to the dirty set
        rather than to total state.
        """
        self.dirty_epoch = getattr(self.kernel, "dirty_epoch",
                                   self.dirty_epoch + 1)

    def ref(self) -> "KObject":
        """Take a reference; returns self for chaining."""
        if self._destroyed:
            raise InvalidArgument(f"ref on destroyed {self!r}")
        self.ref_count += 1
        return self

    def unref(self) -> None:
        """Drop a reference; destroys the object at zero."""
        if self._destroyed:
            return
        if self.ref_count <= 0:
            raise InvalidArgument(f"unref underflow on {self!r}")
        self.ref_count -= 1
        if self.ref_count == 0:
            self._destroyed = True
            self.destroy()

    @property
    def destroyed(self) -> bool:
        """True once the last reference was dropped."""
        return self._destroyed

    def destroy(self) -> None:
        """Subclass hook: release resources when the last ref drops."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(kid={self.kid})"


class KIDAllocator:
    """Monotonic kernel-object id source (per kernel instance)."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def next(self) -> int:
        """The next kernel-object id."""
        return next(self._counter)

"""Path resolution and namespace operations.

Implements ``namei``-style lookup with a name cache.  The cache exists
for more than realism: the paper's §5.2 notes that Aurora checkpoints
vnodes *by inode number* precisely to avoid "costly lookups in the VFS
name cache and namei calls during the checkpoint stop time" — the
CRIU baseline, by contrast, resolves paths through here and pays for
it in the Table 7 comparison.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...errors import (DirectoryNotEmpty, FileExists, InvalidArgument,
                       NoSuchFile, NotADirectory)
from .filesystem import Filesystem
from .vnode import Vnode, VDIR, VREG


def split_path(path: str) -> List[str]:
    """Absolute path -> component list (rejects relative paths)."""
    if not path.startswith("/"):
        raise InvalidArgument(f"paths must be absolute: {path!r}")
    return [part for part in path.split("/") if part]


class VFS:
    """The kernel's file namespace over a single mounted root fs."""

    def __init__(self, kernel, rootfs: Filesystem):
        self.kernel = kernel
        self.rootfs = rootfs
        self._namecache: Dict[str, int] = {}
        self.namecache_hits = 0
        self.namecache_misses = 0

    # -- lookup -----------------------------------------------------------------

    def namei(self, path: str) -> Vnode:
        """Resolve ``path`` to a vnode, consulting the name cache."""
        cached = self._namecache.get(path)
        if cached is not None and self.rootfs.has_inode(cached):
            self.namecache_hits += 1
            return self.rootfs.getvnode(cached)
        self.namecache_misses += 1
        vnode = self.rootfs.root
        for part in split_path(path):
            inode = vnode.dir_lookup(part)
            if inode is None:
                raise NoSuchFile(path)
            vnode = self.rootfs.getvnode(inode)
        self._namecache[path] = vnode.inode
        return vnode

    def _lookup_parent(self, path: str) -> Tuple[Vnode, str]:
        parts = split_path(path)
        if not parts:
            raise InvalidArgument("path refers to the root directory")
        parent_path = "/" + "/".join(parts[:-1])
        return self.namei(parent_path), parts[-1]

    def exists(self, path: str) -> bool:
        """True when the path resolves."""
        try:
            self.namei(path)
            return True
        except NoSuchFile:
            return False

    # -- namespace mutation --------------------------------------------------------

    def create(self, path: str) -> Vnode:
        """Create a regular file; fails if the name exists."""
        parent, name = self._lookup_parent(path)
        if parent.dir_lookup(name) is not None:
            raise FileExists(path)
        vnode = self.rootfs.alloc_vnode(VREG)
        vnode.link_count = 1
        parent.dir_add(name, vnode.inode)
        self._namecache[path] = vnode.inode
        return vnode

    def mkdir(self, path: str) -> Vnode:
        """Create a directory."""
        parent, name = self._lookup_parent(path)
        if parent.dir_lookup(name) is not None:
            raise FileExists(path)
        vnode = self.rootfs.alloc_vnode(VDIR)
        vnode.link_count = 1
        parent.dir_add(name, vnode.inode)
        self._namecache[path] = vnode.inode
        return vnode

    def unlink(self, path: str) -> Vnode:
        """Remove a name.  The vnode survives while open refs exist.

        On a conventional filesystem an unlinked-but-open file is
        reclaimed at reboot; the Aurora filesystem overrides
        reclamation with its hidden (store-side) reference count.
        """
        parent, name = self._lookup_parent(path)
        inode = parent.dir_lookup(name)
        if inode is None:
            raise NoSuchFile(path)
        vnode = self.rootfs.getvnode(inode)
        if vnode.vtype == VDIR and vnode.entries:
            raise DirectoryNotEmpty(path)
        parent.dir_remove(name)
        vnode.link_count -= 1
        vnode.mark_dirty()
        self._namecache.pop(path, None)
        if vnode.link_count == 0 and vnode.ref_count == 1:
            # No names and no open files: reclaim now.
            self.rootfs.forget_vnode(vnode)
        return vnode

    def rename(self, old_path: str, new_path: str) -> None:
        """Move a name, replacing any existing target."""
        old_parent, old_name = self._lookup_parent(old_path)
        inode = old_parent.dir_lookup(old_name)
        if inode is None:
            raise NoSuchFile(old_path)
        new_parent, new_name = self._lookup_parent(new_path)
        existing = new_parent.dir_lookup(new_name)
        if existing is not None:
            victim = self.rootfs.getvnode(existing)
            new_parent.dir_remove(new_name)
            victim.link_count -= 1
            victim.mark_dirty()
            if victim.link_count == 0 and victim.ref_count == 1:
                self.rootfs.forget_vnode(victim)
        old_parent.dir_remove(old_name)
        new_parent.dir_add(new_name, inode)
        self._namecache.pop(old_path, None)
        self._namecache[new_path] = inode

    def listdir(self, path: str) -> List[str]:
        """Sorted names in a directory."""
        vnode = self.namei(path)
        if vnode.vtype != VDIR:
            raise NotADirectory(path)
        return sorted(vnode.entries)

    def invalidate_cache(self) -> None:
        """Drop every name-cache entry (used after FS recovery)."""
        self._namecache.clear()

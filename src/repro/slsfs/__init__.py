"""File systems: the Aurora FS (one mapping update per 64 KiB block a
write touches, ``units.FS_BLOCK``), and the FFS and ZFS block
filesystems baseline machines mount (Figures 3 and 6); FileBench drives
all three through the kernel's VFS."""

from .slsfs import SLSFS
from .kernel_fs import (FFSKernelFilesystem, ZFSKernelFilesystem, mount_ffs,
                        mount_zfs)

__all__ = ["SLSFS", "FFSKernelFilesystem", "ZFSKernelFilesystem",
           "mount_ffs", "mount_zfs"]

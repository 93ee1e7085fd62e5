"""Calibrated cost model for the Aurora reproduction.

Every constant that turns a simulated operation into elapsed
nanoseconds lives here, together with the paper evidence it was
calibrated against.  The reproduction's *mechanisms* (shadow chains,
object serialization, store layout) are real implementations; this
module is the single place where the substituted hardware (MMU, NVMe
array, NIC) is reduced to numbers.

Calibration sources
-------------------
* **Table 4** — per-POSIX-object checkpoint/restore microbenchmarks.
* **Table 5** — stop time vs. dirty-set size for the three checkpoint
  modes.  The incremental column is linear with slope ≈ 22.6 ns/page
  ("checkpoint stop time scales linearly with the dirty set, because of
  the linear time needed to mark pages copy-on-write in the x86 page
  tables"), intercept ≈ 180 µs.  The journal column gives the
  synchronous write path: 4 KiB in 28 µs, 1 GiB in 417.2 ms →
  ≈ 26 µs latency + ≈ 2.57 GiB/s sustained single-stream bandwidth.
* **Table 6** — full restores insert pages at ≈ 230 ns/page
  (e.g. firefox: 198 MiB = 50 688 pages × 230 ns ≈ 11.7 ms of the
  12.4 ms total).
* **Table 7** — Aurora flushes a 500 MiB checkpoint in 97.6 ms →
  ≈ 5.4 GiB/s aggregate asynchronous bandwidth on the 4-device stripe;
  CRIU copies memory at ≈ 3.2 µs/page and writes its image at
  ≈ 1.4 GiB/s; Redis forks a 500 MiB heap in ≈ 8 ms → ≈ 60 ns/page of
  COW setup, and serializes+writes RDB at ≈ 1.7 GiB/s.
* **§9 setup** — dual Xeon Silver 4116 (24 cores), 96 GiB RAM, 4×
  Optane 900P striped at 64 KiB, 10 GbE client network.
"""

from __future__ import annotations

from ..units import GiB, USEC, MSEC, NSEC

# ---------------------------------------------------------------------------
# Machine configuration (paper §9, first paragraph)
# ---------------------------------------------------------------------------

#: Dual Intel Xeon Silver 4116: 2 sockets x 12 cores.
NCPUS = 24

#: 96 GiB of RAM.
PHYSMEM_BYTES = 96 * GiB

#: Four Optane 900P devices, striped at 64 KiB.
NVME_DEVICES = 4

# ---------------------------------------------------------------------------
# CPU / MMU primitives
# ---------------------------------------------------------------------------

#: Cost for a core to send an IPI (FreeBSD smp_rendezvous-style).
IPI_SEND = 2 * USEC

#: Additional wait per target core acknowledging the IPI.
IPI_ACK_PER_CORE = 400 * NSEC

#: Base latency of a TLB shootdown broadcast.
TLB_SHOOTDOWN_BASE = 4 * USEC

#: Per-page INVLPG cost, up to the full-flush threshold.
TLB_INVLPG_PER_PAGE = 120 * NSEC

#: Beyond this many pages real kernels issue a full flush instead of a
#: per-page loop, capping the per-page term.
TLB_FULL_FLUSH_THRESHOLD_PAGES = 64

#: Marking one PTE copy-on-write during system shadowing.
#: Table 5's incremental slope is ~22.6 ns per dirty page TOTAL, and
#: each checkpoint both collapses the previous shadow (~10 ns/page,
#: below) and write-protects the new dirty set — so the marking itself
#: is ~12 ns/PTE.
COW_MARK_PER_PAGE = 12 * NSEC

#: A soft fault: translation missing but the page is resident at depth
#: 0 (fault entry/exit + PTE install, no copy).
SOFT_FAULT = 250 * NSEC

#: Resolving a COW fault: allocate page, copy 4 KiB, update PTE.
#: (~1.1 us: a 4 KiB memcpy at ~10 GiB/s plus fault entry/exit.)
COW_FAULT = 1100 * NSEC

#: Walking one extra level of a shadow chain during a fault.
SHADOW_CHAIN_HOP = 150 * NSEC

#: Moving one page between VM objects during a collapse: a queue
#: unlink + radix insert (pages move by reference, nothing is copied),
#: so collapse + next-checkpoint marking together reproduce Table 5's
#: ~23 ns/page slope.
COLLAPSE_PAGE_MOVE = 10 * NSEC

#: Fixed cost of one collapse operation (locking, object teardown).
COLLAPSE_BASE = 2 * USEC

#: Inserting one page into a VM object at restore time (Table 6:
#: ~230 ns/page reproduces the full-restore rows).
RESTORE_PAGE_INSERT = 230 * NSEC

#: Lazily faulting a page from the store at first touch after a lazy
#: restore (device read latency amortized over read-ahead).
LAZY_FAULT_PER_PAGE = 2 * USEC

#: Fixed user/kernel crossing cost of any system call.
SYSCALL_OVERHEAD = 300 * NSEC

# ---------------------------------------------------------------------------
# Quiesce (paper §5.1 "Quiescing Processes")
# ---------------------------------------------------------------------------

#: Scheduler bookkeeping to park one thread at the syscall boundary.
QUIESCE_PER_THREAD = 1 * USEC

#: Mean residual time of a non-sleeping syscall the quiesce must wait
#: out ("system calls that do not sleep have very low execution
#: times").
QUIESCE_SYSCALL_RESIDUAL = 2 * USEC

#: Rewinding the PC of a sleeping syscall for transparent restart.
QUIESCE_SYSCALL_RESTART = 800 * NSEC

#: Resuming the group after the checkpoint's synchronous phase.
RESUME_PER_THREAD = 700 * NSEC

# ---------------------------------------------------------------------------
# Per-POSIX-object checkpoint/restore costs (Table 4)
# ---------------------------------------------------------------------------
# Table 4 measures the serialize/recreate path for each object type.
# "Most POSIX objects are small and typically involve one lock and
# pointer chasing, which incurs cache misses."  Each entry is
# (base checkpoint ns, base restore ns), named by one row of
# core/objmodel.py with its variable terms (kqueue events, SysV scan).

CKPT_PIPE = 1700 * NSEC            # Table 4: 1.7 us
RESTORE_PIPE = 2600 * NSEC         # Table 4: 2.6 us

CKPT_PTY = 3100 * NSEC             # Table 4: 3.1 us
RESTORE_PTY = 30200 * NSEC         # Table 4: 30.2 us (devfs locks)

CKPT_SHM_POSIX = 4500 * NSEC       # Table 4: 4.5 us (includes shadowing)
RESTORE_SHM_POSIX = 3800 * NSEC    # Table 4: 3.8 us

CKPT_SHM_SYSV_BASE = 2900 * NSEC   # residual after namespace scan
CKPT_SHM_SYSV_SCAN_PER_SLOT = 94 * NSEC  # scanning the global SysV table
SYSV_NAMESPACE_SLOTS = 128         # shminfo.shmmni-style table size
                                   # 2.9us + 128*94ns ~= 14.9 us (Table 4)
RESTORE_SHM_SYSV = 2800 * NSEC     # Table 4: 2.8 us

CKPT_SOCKET = 1800 * NSEC          # Table 4: 1.8 us
RESTORE_SOCKET = 3600 * NSEC       # Table 4: 3.6 us

CKPT_VNODE = 1700 * NSEC           # Table 4: 1.7 us (inode ref, no namei)
RESTORE_VNODE = 2000 * NSEC        # Table 4: 2.0 us

CKPT_KQUEUE_BASE = 1500 * NSEC     # kqueue header
CKPT_KEVENT_EACH = 33 * NSEC       # lock+serialize one knote:
                                   # 1.5us + 1024*33ns ~= 35.2 us (Table 4)
RESTORE_KQUEUE = 2700 * NSEC       # Table 4: 2.7 us

CKPT_FILE_DESC = 300 * NSEC        # per-fd table entry walk
RESTORE_FILE_DESC = 350 * NSEC

CKPT_PROC_BASE = 4 * USEC          # proc struct, credentials, sessions
RESTORE_PROC_BASE = 30 * USEC      # fork-like recreation + PID plumbing
CKPT_THREAD = 1500 * NSEC          # registers off kernel stack + FPU
RESTORE_THREAD = 4 * USEC
CKPT_VMOBJECT = 2 * USEC           # per VM object: lock + metadata
RESTORE_VMOBJECT = 12 * USEC       # recreate object + map entries
CKPT_VMENTRY = 400 * NSEC          # per map entry serialization

#: Fixed orchestration cost of one full/incremental checkpoint
#: (barrier setup, object-table swizzle, store transaction begin).
#: Table 5's incremental intercept (185 us) minus the single test
#: process's object costs leaves ~150 us of orchestration.
CKPT_ORCH_BASE = 150 * USEC

#: Fixed cost of an atomic single-region checkpoint (sls_memckpt):
#: Table 5 shows a ~75-80 us intercept — no quiesce, no OS-state walk.
CKPT_ATOMIC_BASE = 72 * USEC

# ---------------------------------------------------------------------------
# Storage (4x Optane 900P, 64 KiB stripe)
# ---------------------------------------------------------------------------

#: Completion latency of one NVMe write command (Optane: ~10 us).
NVME_WRITE_LATENCY = 10 * USEC

#: Completion latency of one NVMe read command.
NVME_READ_LATENCY = 8 * USEC

#: Per-device sustained write bandwidth.  4 devices striped reproduce
#: Table 7's 500 MiB flush in 97.6 ms (~5.4 GiB/s aggregate).
NVME_WRITE_BW = int(1.35 * GiB)    # bytes/second, per device

#: Per-device sustained read bandwidth (Optane 900P reads ~2.5 GiB/s).
NVME_READ_BW = int(2.5 * GiB)

#: Synchronous single-stream write bandwidth (queue depth 1) — the
#: journal path.  Table 5: 1 GiB journal write in 417.2 ms ->
#: ~2.57 GiB/s, and 4 KiB in 28 us -> ~26 us latency + transfer.
SYNC_WRITE_LATENCY = 26 * USEC
SYNC_WRITE_BW = int(2.57 * GiB)

# ---------------------------------------------------------------------------
# Object store software path
# ---------------------------------------------------------------------------

#: CPU cost to allocate an extent and update the object btree.
STORE_ALLOC_EXTENT = 900 * NSEC

#: CPU cost to stage one record into the write buffer.
STORE_RECORD_STAGE = 500 * NSEC

#: Writing the checkpoint's commit record (superblock slot update).
STORE_COMMIT = 12 * USEC

#: Aurora FS: creating a file currently takes a global lock (§9.1
#: "File creation in Aurora is unoptimized") — slower than either
#: baseline's create path (Figure 3c).
SLSFS_CREATE_GLOBAL_LOCK = 25 * USEC

#: Aurora FS fsync is a no-op (checkpoint consistency).
SLSFS_FSYNC = 300 * NSEC

# ---------------------------------------------------------------------------
# Baseline filesystems (Figure 3 calibration)
# ---------------------------------------------------------------------------
# These model metadata-update strategy costs per operation; data
# transfer costs come from the shared device model.

#: ZFS: COW indirect-block tree update per block write.
ZFS_COW_TREE_UPDATE = 14 * USEC
#: ZFS: fletcher4/sha256 checksum per 64 KiB block (when enabled).
ZFS_CHECKSUM_PER_64K = 14 * USEC
#: ZFS: intent-log record for an fsync.
ZFS_ZIL_COMMIT = 90 * USEC
#: ZFS: file creation (dnode allocation + dir ZAP update).
ZFS_CREATE = 18 * USEC

#: FFS: cylinder-group bitmap + inode update per block.
FFS_BLOCK_UPDATE = 2500 * NSEC
#: FFS: fragment-optimized small write (sub-block).
FFS_FRAG_WRITE = 1200 * NSEC
#: FFS: SU+J journal record for namespace ops.
FFS_SUJ_RECORD = 5 * USEC
#: FFS: fsync must flush the inode + data synchronously.
FFS_FSYNC = 60 * USEC
#: FFS: file creation.
FFS_CREATE = 11 * USEC

#: Aurora object store metadata update per 64 KiB filesystem block a
#: write touches (simple mappings: "Aurora's simpler metadata updates
#: are designed to reduce the latency of periodic checkpoints").
SLSFS_BLOCK_UPDATE = 1800 * NSEC

# ---------------------------------------------------------------------------
# CRIU baseline (Tables 1 and 7)
# ---------------------------------------------------------------------------

#: Fixed cost: ptrace attach, parasite code injection per process.
CRIU_ATTACH_PER_PROC = 5 * MSEC

#: Querying one kernel object through /proc + netlink interfaces.
CRIU_QUERY_PER_OBJECT = 50 * USEC

#: Scanning /proc/pid/pagemap to find resident pages (per page).
CRIU_PAGEMAP_SCAN_PER_PAGE = 340 * NSEC

#: Copying one page out via process_vm_readv + pipe splice.
#: Table 1: 413 ms for 128 000 pages -> ~3.2 us/page.
CRIU_PAGE_COPY = 3200 * NSEC

#: Image write bandwidth (single-threaded, buffered, no fsync).
#: Table 1: 500 MB in 350 ms -> ~1.43 GiB/s.
CRIU_IMAGE_WRITE_BW = int(1.43 * GiB)

#: Cross-referencing shared resources between processes (per pair of
#: candidate objects compared during sharing inference).
CRIU_SHARING_INFERENCE = 6 * USEC

# ---------------------------------------------------------------------------
# Redis RDB baseline (Table 7)
# ---------------------------------------------------------------------------

#: fork() COW setup per mapped page (page-table copy + wrprotect).
#: Table 7: ~8 ms stop for 128 000 pages -> ~60 ns/page.
FORK_COW_SETUP_PER_PAGE = 60 * NSEC

#: Serializing one key/value pair into RDB format (CPU).
RDB_SERIALIZE_PER_KEY = 900 * NSEC

#: RDB child write bandwidth (serialize + buffered write):
#: Table 7: 500 MiB in ~300 ms -> ~1.7 GiB/s.
RDB_WRITE_BW = int(1.7 * GiB)

# ---------------------------------------------------------------------------
# Network (10 GbE, Figures 4/5)
# ---------------------------------------------------------------------------

#: One-way wire+stack latency for a small request on the 10 GbE LAN.
NET_RTT = 60 * USEC

#: NIC bandwidth in bytes/second.
NET_BW = int(10 * GiB / 8)

# ---------------------------------------------------------------------------
# Application service costs (Figures 4/5/6 calibration)
# ---------------------------------------------------------------------------

#: Memcached per-request CPU cost across its worker pool.  Baseline
#: peak ~1.1 M ops/s over 12 threads -> ~0.9 us of whole-machine time
#: per op once pipelining is accounted for.
MEMCACHED_OP_CPU = 850 * NSEC

#: RocksDB: memtable (skiplist) insert/lookup CPU.
ROCKSDB_MEMTABLE_OP = 320 * NSEC

#: RocksDB: encoding a WAL record.
ROCKSDB_WAL_ENCODE = 250 * NSEC

#: RocksDB: buffered (non-sync) WAL append to the page cache.
ROCKSDB_WAL_BUFFERED_APPEND = 600 * NSEC

#: Redis: per-op CPU cost (dict update).
REDIS_OP_CPU = 500 * NSEC

"""The full checkpoint/restore matrix: every POSIX object type must
survive checkpoint → crash → reboot → restore with its semantics
intact (the heart of the paper)."""

import pytest

from repro import Machine, load_aurora
from repro.errors import PermissionDenied
from repro.kernel.fs.file import O_CREAT, O_RDWR
from repro.kernel.ipc.kqueue import EVFILT_READ, KEvent
from repro.kernel.ipc.unixsock import ControlMessage
from repro.kernel.proc.signals import SIGCHLD, SIGSLSRESTORE, SIGTERM
from repro.units import PAGE_SIZE


@pytest.fixture
def setup():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, periodic=False)
    return machine, sls, proc, group


def crash_and_restore(machine, sls, group, ckpt_id=None, lazy=False):
    gid = group.group_id
    sls.checkpoint(group, sync=True)
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    result = sls2.restore(gid, ckpt_id=ckpt_id, lazy=lazy, periodic=False)
    return sls2, result


# -- memory ---------------------------------------------------------------------------


def test_memory_contents_restored(setup):
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr + 5, b"precious bytes")
    _sls2, result = crash_and_restore(machine, sls, group)
    assert result.root.vmspace.read(addr + 5, 14) == b"precious bytes"


def test_incremental_chain_restores_latest(setup):
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    for version in range(5):
        proc.vmspace.write(addr, f"version-{version}".encode())
        sls.checkpoint(group, sync=True)
    _sls2, result = crash_and_restore(machine, sls, group)
    assert result.root.vmspace.read(addr, 9) == b"version-4"


def test_time_travel_to_named_checkpoint(setup):
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"early")
    early = sls.checkpoint(group, name="early", sync=True)
    proc.vmspace.write(addr, b"later")
    sls.checkpoint(group, sync=True)
    _sls2, result = crash_and_restore(machine, sls, group,
                                      ckpt_id=early.info.ckpt_id)
    assert result.root.vmspace.read(addr, 5) == b"early"


def test_lazy_restore_pages_in_on_demand(setup):
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(128 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 128, seed=7)
    proc.vmspace.write(addr, b"lazy!")
    _sls2, result = crash_and_restore(machine, sls, group, lazy=True)
    assert result.pages_restored == 0
    assert result.pages_lazy > 0
    # First touch faults the page in from the store.
    assert result.root.vmspace.read(addr, 5) == b"lazy!"
    assert machine.kernel.pageout.pageins >= 1


def test_lazy_restore_is_faster_than_full(setup):
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(2048 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 2048, seed=1)
    gid = group.group_id
    sls.checkpoint(group, sync=True)
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    t0 = machine.clock.now()
    full = sls2.restore(gid, periodic=False)
    full_time = full.elapsed_ns
    # Restore again lazily (fresh incarnation of the same image).
    for p in list(full.group.processes):
        full.group.remove_process(p)
        p.exit(0)
    sls2.groups.pop(full.group.group_id, None)
    lazy = sls2.restore(gid, lazy=True, periodic=False)
    assert lazy.elapsed_ns < full_time / 2


# -- processes, threads, IDs ------------------------------------------------------------------


def test_process_tree_and_groups_restored(setup):
    machine, sls, proc, group = setup
    child = machine.kernel.fork(proc, name="worker")
    grandchild = machine.kernel.fork(child, name="helper")
    _sls2, result = crash_and_restore(machine, sls, group)
    by_name = {p.name: p for p in result.processes}
    assert by_name["helper"].parent is by_name["worker"]
    assert by_name["worker"].parent is by_name["app"]
    assert by_name["worker"].pgroup.pgid == proc.pgroup.pgid


def test_pid_virtualization_on_conflict(setup):
    machine, sls, proc, group = setup
    original_pid = proc.pid
    gid = group.group_id
    sls.checkpoint(group, sync=True)
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    # Occupy the original pid before restoring.
    machine.kernel.spawn("squatter", pid=original_pid)
    result = sls2.restore(gid, periodic=False)
    restored = result.root
    assert restored.local_pid == original_pid     # app-visible id
    assert restored.pid != original_pid           # system-visible id
    assert result.group.idmap.to_global(original_pid) == restored.pid


def test_thread_state_restored(setup):
    machine, sls, proc, group = setup
    thread2 = proc.add_thread()
    thread2.cpu_state.regs["rip"] = 0xAAAA
    thread2.cpu_state.regs["rsp"] = 0xBBBB
    thread2.signals.block(SIGTERM)
    thread2.sched_priority = 90
    _sls2, result = crash_and_restore(machine, sls, group)
    restored = result.root.threads[1]
    assert restored.cpu_state.regs["rip"] == 0xAAAA
    assert restored.cpu_state.regs["rsp"] == 0xBBBB
    assert SIGTERM in restored.signals.mask
    assert restored.sched_priority == 90
    assert restored.local_tid == thread2.local_tid


def test_restore_signal_delivered(setup):
    machine, sls, proc, group = setup
    _sls2, result = crash_and_restore(machine, sls, group)
    assert SIGSLSRESTORE in result.root.main_thread.signals.pending


def test_ephemeral_child_gone_and_parent_notified(setup):
    """§3: ephemeral members are not persisted; after restore the
    parent sees SIGCHLD as if the child exited."""
    machine, sls, proc, group = setup
    worker = machine.kernel.fork(proc, name="scratch-worker")
    sls.mark_ephemeral(worker)
    _sls2, result = crash_and_restore(machine, sls, group)
    names = {p.name for p in result.processes}
    assert "scratch-worker" not in names
    assert SIGCHLD in result.root.main_thread.signals.pending


# -- descriptors -------------------------------------------------------------------------------------


def test_fd_sharing_preserved_across_restore(setup):
    """The §5.1 example end-to-end: fork-shared offsets stay shared,
    separate opens stay separate — after a reboot."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fd = kernel.open(proc, "/f", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"abcdefgh")
    kernel.lseek(proc, fd, 0)
    child = kernel.fork(proc)
    fd_other = kernel.open(proc, "/f", O_RDWR)  # independent OpenFile

    _sls2, result = crash_and_restore(machine, sls, group)
    by_name = {p.name: p for p in result.processes}
    parent2, child2 = by_name["app"], by_name["app-child"]
    kernel2 = machine.kernel
    assert kernel2.read(parent2, fd, 2) == b"ab"
    assert kernel2.read(child2, fd, 2) == b"cd"   # shared offset moved
    assert kernel2.read(parent2, fd_other, 4) == b"abcd"  # independent


def test_pipe_contents_restored(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    rfd, wfd = kernel.pipe(proc)
    kernel.write(proc, wfd, b"in flight")
    _sls2, result = crash_and_restore(machine, sls, group)
    assert machine.kernel.read(result.root, rfd, 9) == b"in flight"


def test_unix_socket_pair_restored_with_peer_link(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    lfd, rfd = kernel.socketpair(proc)
    kernel.sock_of(proc, lfd).send(b"queued message")
    _sls2, result = crash_and_restore(machine, sls, group)
    kernel2 = machine.kernel
    p2 = result.root
    right = kernel2.sock_of(p2, rfd)
    assert right.recv() == b"queued message"
    # Peer link works in both directions after restore.
    right.send(b"reply")
    assert kernel2.sock_of(p2, lfd).recv() == b"reply"


def test_inflight_fd_passing_restored(setup):
    """A descriptor sitting in a socket buffer at checkpoint time is
    chased and restored (§5.3 — CRIU's seven-year gap)."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    file_fd = kernel.open(proc, "/passed", O_CREAT | O_RDWR)
    kernel.write(proc, file_fd, b"ride along")
    lfd, rfd = kernel.socketpair(proc)
    kernel.sock_of(proc, lfd).sendmsg(
        b"fd attached", ControlMessage(files=[proc.fdtable.get(file_fd)]))

    _sls2, result = crash_and_restore(machine, sls, group)
    kernel2 = machine.kernel
    p2 = result.root
    message = kernel2.sock_of(p2, rfd).recvmsg()
    assert message.data == b"fd attached"
    received = message.control.files[0]
    newfd = p2.fdtable.install(received)
    kernel2.lseek(p2, newfd, 0)
    assert kernel2.read(p2, newfd, 10) == b"ride along"


def test_tcp_listener_restored_without_accept_queue(setup):
    """§5.3: the accept queue is omitted; a pending client looks like a
    dropped SYN, and new connections succeed."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    sfd = kernel.tcp_socket(proc)
    server = kernel.sock_of(proc, sfd)
    server.bind("10.0.0.1", 8080)
    server.listen()
    from repro.kernel.net.tcp import TCPSocket
    TCPSocket(kernel).connect("10.0.0.1", 8080)  # pending, unaccepted
    assert len(server.accept_queue) == 1

    _sls2, result = crash_and_restore(machine, sls, group)
    kernel2 = machine.kernel
    restored = kernel2.sock_of(result.root, sfd)
    assert restored.state == "listen"
    assert restored.accept_queue == []  # SYN dropped
    # The client retries and gets through.
    TCPSocket(kernel2).connect("10.0.0.1", 8080)
    assert len(restored.accept_queue) == 1


def test_tcp_established_state_restored(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    sfd = kernel.tcp_socket(proc)
    server = kernel.sock_of(proc, sfd)
    server.bind("10.0.0.1", 9000)
    server.listen()
    cfd = kernel.tcp_socket(proc)
    client = kernel.sock_of(proc, cfd)
    client.laddr, client.lport = "10.0.0.1", 55555
    client.connect("10.0.0.1", 9000)
    afd = kernel.accept(proc, sfd)
    client.send(b"unread")
    seq = client.snd_nxt

    _sls2, result = crash_and_restore(machine, sls, group)
    kernel2 = machine.kernel
    p2 = result.root
    client2 = kernel2.sock_of(p2, cfd)
    accepted2 = kernel2.sock_of(p2, afd)
    assert client2.state == "established"
    assert client2.snd_nxt == seq
    assert client2.five_tuple() == ("tcp", "10.0.0.1", 55555,
                                    "10.0.0.1", 9000)
    assert accepted2.recv(6) == b"unread"  # buffered data survived


def test_udp_socket_restored(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    ufd = kernel.udp_socket(proc)
    sock = kernel.sock_of(proc, ufd)
    sock.bind("10.0.0.1", 5353)
    sock.enqueue(("10.9.9.9", 1000), b"datagram")
    _sls2, result = crash_and_restore(machine, sls, group)
    restored = machine.kernel.sock_of(result.root, ufd)
    assert (restored.laddr, restored.lport) == ("10.0.0.1", 5353)
    payload, source = restored.recvfrom()
    assert payload == b"datagram"
    assert source == ("10.9.9.9", 1000)


def test_whitelisted_device_fd_round_trips(setup):
    machine, sls, proc, group = setup
    fd = machine.kernel.open_device(proc, "zero")
    _sls2, result = crash_and_restore(machine, sls, group)
    device = result.root.fdtable.get(fd).fobj
    assert device.name == "zero"
    assert machine.kernel.read(result.root, fd, 4) == b"\x00" * 4


def test_non_whitelisted_device_fd_is_refused_at_checkpoint(setup):
    machine, sls, proc, group = setup
    fd = machine.kernel.open_device(proc, "null")
    # A driver outside the whitelist, held open behind devfs's back.
    proc.fdtable.get(fd).fobj.name = "mem"
    with pytest.raises(PermissionDenied):
        sls.checkpoint(group, sync=True)


def test_kqueue_events_restored(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    kqfd = kernel.kqueue(proc)
    kq = proc.fdtable.get(kqfd).fobj
    for ident in range(10):
        kq.register(KEvent(ident, EVFILT_READ, udata=ident * 7))
    _sls2, result = crash_and_restore(machine, sls, group)
    restored = result.root.fdtable.get(kqfd).fobj
    assert len(restored) == 10
    assert {e.udata for e in restored.events()} == {i * 7
                                                    for i in range(10)}


def test_pty_restored(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    mfd, sfd = kernel.open_pty(proc)
    pty = proc.fdtable.get(mfd).fobj
    pty.set_winsize(50, 132)
    pty.master_write(b"pending input")
    _sls2, result = crash_and_restore(machine, sls, group)
    restored = result.root.fdtable.get(mfd).fobj
    assert restored.termios["rows"] == 50
    assert restored.slave_read(13) == b"pending input"
    # Both fds reference the same restored pty.
    assert result.root.fdtable.get(sfd).fobj is restored


def test_posix_shm_restored_shared(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    shmfd = kernel.shm_open(proc, "/seg", 4 * PAGE_SIZE)
    addr = kernel.shm_mmap(proc, shmfd)
    child = kernel.fork(proc)
    proc.vmspace.write(addr, b"both see this")
    _sls2, result = crash_and_restore(machine, sls, group)
    by_name = {p.name: p for p in result.processes}
    p2, c2 = by_name["app"], by_name["app-child"]
    assert p2.vmspace.read(addr, 13) == b"both see this"
    # Sharing is live, not a copy.
    p2.vmspace.write(addr, b"BOTH")
    assert c2.vmspace.read(addr, 4) == b"BOTH"
    # The registry knows the segment again.
    assert "/seg" in machine.kernel.posix_shm.names()


def test_sysv_shm_restored(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    shmid = kernel.shmget(0xBEEF, 2 * PAGE_SIZE)
    addr = kernel.shmat(proc, shmid)
    proc.vmspace.write(addr, b"sysv data")
    _sls2, result = crash_and_restore(machine, sls, group)
    assert result.root.vmspace.read(addr, 9) == b"sysv data"
    # The key is findable again in the global namespace.
    new_id = machine.kernel.shmget(0xBEEF, 2 * PAGE_SIZE, create=False)
    seg = machine.kernel.sysv_shm.segment(new_id)
    assert seg.size == 2 * PAGE_SIZE


def test_vdso_reinjected_from_new_boot(setup):
    """§5.3: restore injects the *current* platform's vDSO."""
    machine, sls, proc, group = setup
    vdso_addr = machine.kernel.vdso.inject(proc.vmspace)
    old_seed = machine.kernel.vdso.content_seed()
    _sls2, result = crash_and_restore(machine, sls, group)
    new_kernel = machine.kernel
    assert new_kernel.vdso.content_seed() != old_seed
    entry = result.root.vmspace.entry_at(vdso_addr)
    assert entry.vmobject is new_kernel.vdso.vmobject


def test_fork_cow_backing_chain_survives_restore(setup):
    """§6 'Checkpointing the VM': the object hierarchy is persisted,
    so parent/child COW sharing is a chain again after restore."""
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"shared page")
    child = machine.kernel.fork(proc)
    proc.vmspace.write(addr + PAGE_SIZE, b"parent-dirty")
    _sls2, result = crash_and_restore(machine, sls, group)
    by_name = {p.name: p for p in result.processes}
    p2, c2 = by_name["app"], by_name["app-child"]
    assert p2.vmspace.read(addr, 11) == b"shared page"
    assert c2.vmspace.read(addr, 11) == b"shared page"
    assert c2.vmspace.read(addr + PAGE_SIZE, 12) == b"\x00" * 12
    assert p2.vmspace.read(addr + PAGE_SIZE, 12) == b"parent-dirty"
    # COW still isolates them going forward.
    p2.vmspace.write(addr, b"PARENT-ONLY")
    assert c2.vmspace.read(addr, 11) == b"shared page"

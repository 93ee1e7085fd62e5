"""``sls dump``: extract a checkpoint as an ELF-style core image (§3).

Produces a structurally valid ELF64 container: an ELF header, one
PT_NOTE segment carrying NT_PRSTATUS-like notes per thread, and one
PT_LOAD segment per mapped region with the region's memory contents.
It is not loadable on real x86-64 (the substrate is simulated), but
the layout is faithful enough that the parser in the test suite — and
any curious reader with ``readelf``-shaped expectations — can walk it.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from ..errors import RestoreError
from ..units import PAGE_SIZE

ELF_MAGIC = b"\x7fELF"
ELFCLASS64 = 2
ELFDATA2LSB = 1
ET_CORE = 4
EM_X86_64 = 62
PT_LOAD = 1
PT_NOTE = 4

_EHDR = struct.Struct("<4sBBBB8xHHIQQQIHHHHHH")
_PHDR = struct.Struct("<IIQQQQQQ")
_NHDR = struct.Struct("<III")

NT_PRSTATUS = 1


def _align4(n: int) -> int:
    return (n + 3) & ~3


def _note(name: bytes, ntype: int, desc: bytes) -> bytes:
    name_z = name + b"\x00"
    out = _NHDR.pack(len(name_z), len(desc), ntype)
    out += name_z.ljust(_align4(len(name_z)), b"\x00")
    out += desc.ljust(_align4(len(desc)), b"\x00")
    return out


def _prstatus(thread) -> bytes:
    """A compact register-dump note (pid, tid, then the GP registers
    in a fixed order)."""
    regs = thread.cpu_state.regs
    ordered = [regs[name] for name in sorted(regs)]
    return struct.pack(f"<II{len(ordered)}Q", thread.proc.local_pid,
                       thread.local_tid, *ordered)


def dump_process(proc) -> bytes:
    """Serialize one process's live state as an ELF64 core image."""
    # Collect notes.
    notes = b""
    for thread in proc.threads:
        notes += _note(b"CORE", NT_PRSTATUS, _prstatus(thread))

    # Collect loadable segments (skip device mappings).
    segments: List[Tuple[int, bytes]] = []
    for entry in proc.vmspace.map:
        if entry.vmobject.kind == "device":
            continue
        content = bytearray()
        for i in range(entry.npages):
            page = entry.vmobject.visible_page(entry.pindex_of(
                entry.start_page + i))
            content += page.realize() if page is not None \
                else b"\x00" * PAGE_SIZE
        segments.append((entry.start_page * PAGE_SIZE, bytes(content)))

    phnum = 1 + len(segments)
    ehsize = _EHDR.size
    phoff = ehsize
    data_off = phoff + phnum * _PHDR.size

    # Layout: notes first, then each segment.
    phdrs = b""
    body = b""
    note_off = data_off
    phdrs += _PHDR.pack(PT_NOTE, 0, note_off, 0, 0, len(notes),
                        len(notes), 4)
    body += notes
    cursor = note_off + len(notes)
    for vaddr, content in segments:
        phdrs += _PHDR.pack(PT_LOAD, 0x6, cursor, vaddr, vaddr,
                            len(content), len(content), PAGE_SIZE)
        body += content
        cursor += len(content)

    ehdr = _EHDR.pack(ELF_MAGIC, ELFCLASS64, ELFDATA2LSB, 1, 0,
                      ET_CORE, EM_X86_64, 1, 0, phoff, 0, 0,
                      ehsize, _PHDR.size, phnum, 0, 0, 0)
    return ehdr + phdrs + body


def parse_core(data: bytes) -> dict:
    """Parse a core produced by :func:`dump_process` (tests use this)."""
    if data[:4] != ELF_MAGIC:
        raise RestoreError("not an ELF image")
    fields = _EHDR.unpack_from(data, 0)
    e_type, _machine = fields[5], fields[6]
    phoff, phnum = fields[9], fields[14]
    if e_type != ET_CORE:
        raise RestoreError("not a core file")
    segments = []
    notes = []
    for index in range(phnum):
        p_type, _flags, off, vaddr, _paddr, filesz, _memsz, _align = \
            _PHDR.unpack_from(data, phoff + index * _PHDR.size)
        blob = data[off:off + filesz]
        if p_type == PT_LOAD:
            segments.append({"vaddr": vaddr, "data": blob})
        elif p_type == PT_NOTE:
            cursor = 0
            while cursor + _NHDR.size <= len(blob):
                namesz, descsz, ntype = _NHDR.unpack_from(blob, cursor)
                cursor += _NHDR.size
                name = blob[cursor:cursor + namesz - 1]
                cursor += _align4(namesz)
                desc = blob[cursor:cursor + descsz]
                cursor += _align4(descsz)
                notes.append({"name": name, "type": ntype, "desc": desc})
    return {"segments": segments, "notes": notes}

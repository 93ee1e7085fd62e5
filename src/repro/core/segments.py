"""Checkpoint-delta sharding: segments and their digests.

Cloud-Aurora durability (SNIPPETS.md lecture notes; Verbitski et al.)
is organized around *segments*: the replicated stream is cut into
fixed-size pieces, each piece is the unit of failure and — more
importantly — the unit of *repair*.  Losing a 10 GB segment costs ~10
seconds to re-replicate from the surviving copies, so the mean time to
repair, not the mean time to failure, bounds durability: the window in
which a second (and third) fault can line up on the same data is the
repair window.

This module is the pure-data half of the cluster layer
(:mod:`repro.core.cluster` owns the nodes and the quorum protocol):

* :class:`SegmentMeta` — one segment's index, extent and CRC.
* :class:`ShardManifest` — a checkpoint delta's complete segment map,
  checksummed so any reassembly is self-verifying.
* :func:`shard_stream` / :func:`assemble` — cut a migration stream
  into segments / glue verified segments back together.
* :class:`DigestTree` — one node's digests over the checkpoints it
  holds, diffed leaf by leaf during heal-time reconciliation.

The simulated streams are kilobytes, not gigabytes, so the default
segment size is scaled down to keep several segments per checkpoint —
the *topology* (many segments, parallel repair) is what the tests
exercise, not the absolute sizes.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from ..errors import SegmentCorrupt
from ..units import KiB
from .tracing import Trace

#: Scaled-down stand-in for Aurora's 10 GB segment.
DEFAULT_SEGMENT_BYTES = 4 * KiB


def _crc(payload: bytes) -> int:
    return zlib.crc32(payload) & 0xFFFFFFFF


class SegmentMeta:
    """One segment of a sharded checkpoint stream."""

    __slots__ = ("index", "offset", "length", "crc")

    def __init__(self, index: int, offset: int, length: int, crc: int):
        self.index = index
        self.offset = offset
        self.length = length
        self.crc = crc

    def verify(self, payload: bytes) -> None:
        """Checksum + length check; raises
        :class:`~repro.errors.SegmentCorrupt` on mismatch."""
        if len(payload) != self.length:
            raise SegmentCorrupt(
                f"segment {self.index}: {len(payload)} bytes on the "
                f"wire, manifest says {self.length}")
        if _crc(payload) != self.crc:
            raise SegmentCorrupt(
                f"segment {self.index}: CRC mismatch "
                f"({_crc(payload):#010x} != {self.crc:#010x})")

    def __repr__(self) -> str:
        return (f"SegmentMeta(#{self.index} @{self.offset}"
                f"+{self.length} crc={self.crc:#010x})")


class ShardManifest:
    """The complete segment map of one replicated checkpoint delta.

    Canonical per checkpoint: every node receives (and repair
    reconstructs) the *same* segmentation of the same stream, so a
    segment index names identical bytes cluster-wide and any complete
    copy can donate any segment.
    """

    __slots__ = ("group_id", "ckpt_id", "total_bytes", "segment_bytes",
                 "segments", "trace", "epoch", "base")

    def __init__(self, group_id: int, ckpt_id: int, total_bytes: int,
                 segment_bytes: int, segments: List[SegmentMeta],
                 epoch: int = 0):
        self.group_id = group_id
        self.ckpt_id = ckpt_id
        self.total_bytes = total_bytes
        self.segment_bytes = segment_bytes
        self.segments = segments
        #: The checkpoint trace this delta's replication belongs to (a
        #: ``tracing.Trace`` or ``None``), stamped by the primary so
        #: replica-side spans land in the originating trace.
        self.trace: Optional[Trace] = None
        #: Cluster membership epoch the shipping primary held when it
        #: put this delta on the wire; replicas fence any manifest
        #: whose epoch trails their durably promised epoch.
        self.epoch = epoch
        #: The checkpoint the delta lands on top of (None: a full
        #: stream, which lands on nothing).
        self.base: Optional[int] = None

    def __len__(self) -> int:
        return len(self.segments)

    def __repr__(self) -> str:
        return (f"ShardManifest(group={self.group_id} "
                f"ckpt={self.ckpt_id}: {len(self.segments)} segments, "
                f"{self.total_bytes} bytes)")


def shard_stream(group_id: int, ckpt_id: int, stream: bytes,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES
                 ) -> Tuple[ShardManifest, List[bytes]]:
    """Cut a migration stream into fixed-size segments.

    Returns ``(manifest, payloads)``; the manifest's segment order is
    the payload list's order.  The final segment carries the tail and
    may be short.
    """
    if segment_bytes < 1:
        raise ValueError(f"bad segment size {segment_bytes}")
    payloads: List[bytes] = []
    metas: List[SegmentMeta] = []
    offset = 0
    index = 0
    # A zero-length stream still ships one (empty) segment so the
    # manifest is never vacuous.
    while offset < len(stream) or index == 0:
        piece = stream[offset:offset + segment_bytes]
        metas.append(SegmentMeta(index, offset, len(piece), _crc(piece)))
        payloads.append(piece)
        offset += len(piece)
        index += 1
        if not piece:
            break
    return (ShardManifest(group_id, ckpt_id, len(stream), segment_bytes,
                          metas), payloads)


def assemble(manifest: ShardManifest,
             payloads: Dict[int, bytes]) -> bytes:
    """Glue verified segments back into the original stream.

    ``payloads`` maps segment index → bytes (sourced from any mix of
    donors).  Every segment is completeness- and checksum-verified
    against the manifest; any gap or corruption raises
    :class:`~repro.errors.SegmentCorrupt` — a partially-assembled
    stream must never reach a replica's store.
    """
    parts: List[bytes] = []
    for meta in manifest.segments:
        payload = payloads.get(meta.index)
        if payload is None:
            raise SegmentCorrupt(
                f"segment {meta.index} of checkpoint "
                f"{manifest.ckpt_id} missing from every donor")
        meta.verify(payload)
        parts.append(payload)
    stream = b"".join(parts)
    if len(stream) != manifest.total_bytes:
        raise SegmentCorrupt(
            f"assembled {len(stream)} bytes, manifest says "
            f"{manifest.total_bytes}")
    return stream


# --- anti-entropy digest tree ----------------------------------------------
#
# The merkle-style structure the heal-time reconciliation exchange
# compares: segment CRCs (already carried by every manifest) roll up
# into one root per checkpoint, checkpoint roots into one root per
# node.  Two nodes agree on a checkpoint iff its roots match, so the
# exchange compares leaves only under mismatched roots and repair is
# fed exactly the segments that actually differ — bytes on the wire
# scale with the divergence, not the history.

class DigestTree:
    """One node's digest tree over its applied checkpoint manifests.

    Built from ``{primary_ckpt_id: ShardManifest}``; :meth:`diff`
    against a canonical tree returns, per divergent or missing
    checkpoint, exactly the segment indexes whose bytes differ.
    """

    def __init__(self, manifests: Dict[int, ShardManifest]) -> None:
        #: ckpt -> segment index -> (length, crc) leaf digests.
        self.leaves: Dict[int, Dict[int, Tuple[int, int]]] = {}
        #: ckpt -> checkpoint root digest: CRC over the segments'
        #: ``(index, length, crc)`` triples in index order.
        self.roots: Dict[int, int] = {}
        for ckpt, manifest in manifests.items():
            self.leaves[ckpt] = {meta.index: (meta.length, meta.crc)
                                 for meta in manifest.segments}
            self.roots[ckpt] = _crc(b"".join(
                b"%d:%d:%d;" % (meta.index, meta.length, meta.crc)
                for meta in manifest.segments))
        #: Whole-node root digest over checkpoint roots in id order.
        self.root = _crc(b"".join(
            b"%d:%d;" % (ckpt, self.roots[ckpt])
            for ckpt in sorted(self.roots)))

    def diff(self, canonical: "DigestTree") -> Dict[int, List[int]]:
        """Segments this node must fetch to match ``canonical``.

        Returns ``{ckpt: [segment indexes]}`` covering checkpoints the
        node is missing entirely (every canonical segment listed) and
        checkpoints whose roots diverge (only the segments whose leaves
        differ listed).  Checkpoints this node holds beyond the
        canonical tree are the fencing layer's business, not the
        diff's.
        """
        needed: Dict[int, List[int]] = {}
        for ckpt, root in canonical.roots.items():
            if ckpt not in self.roots:
                needed[ckpt] = sorted(canonical.leaves[ckpt])
            elif self.roots[ckpt] != root:
                needed[ckpt] = sorted(
                    index for index, leaf in canonical.leaves[ckpt].items()
                    if self.leaves[ckpt].get(index) != leaf)
        return needed

    def __repr__(self) -> str:
        return (f"DigestTree({len(self.roots)} ckpts, "
                f"root={self.root:#010x})")

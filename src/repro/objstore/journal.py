"""Non-COW journal objects (§7 "Non-COW Objects for the Aurora API").

A journal is a preallocated extent region updated *in place* — the one
deliberate exception to the store's COW rule — giving ``sls_journal``
its 28 µs synchronous 4 KiB append.  Records are framed with an epoch
and sequence number; ``truncate`` bumps the epoch by rewriting the
header slot, so recovery replays exactly the appends of the current
epoch and stops at the first missing or stale slot.
"""

from __future__ import annotations

from typing import Any, List

from ..core import telemetry
from ..errors import CorruptRecord, InvalidArgument, NoSpace, StoreError
from ..units import KiB
from . import records

#: Slot granularity of the journal region.  A record starts on a slot
#: boundary and occupies as many slots as it needs; it is written as a
#: *single* streaming command, so a 4 KiB append costs one sync write
#: (Table 5: 28 µs) and a 1 GiB append streams at the single-stream
#: bandwidth (Table 5: 417 ms) instead of paying per-slot latency.
SLOT_SIZE = 4 * KiB + 512


class Journal:
    """One journal object: header slot + append slots, in place."""

    def __init__(self, store: Any, jid: int, base: int, capacity: int,
                 epoch: int = 1) -> None:
        self.store = store
        self.jid = jid
        self.base = base
        self.capacity = capacity  # bytes, including the header slot
        self.epoch = epoch
        self.head_slot = 1        # next append slot
        self.appends = 0

    @property
    def nslots(self) -> int:
        """Total slots in the region, header included."""
        return self.capacity // SLOT_SIZE

    def _slot_offset(self, slot: int) -> int:
        return self.base + slot * SLOT_SIZE

    # -- durability --------------------------------------------------------------

    def _write_header(self) -> None:
        payload = records.encode(records.REC_JOURNAL, {
            "jid": self.jid, "epoch": self.epoch, "header": True,
        })
        self.store.retry.run(
            lambda: self.store.device.write(self.base, payload, sync=True),
            op="journal.header")

    def append(self, data: bytes) -> int:
        """Synchronously append ``data``; returns the record's slot.

        This is the latency-critical path: one sync device write per
        slot, no metadata updates, no COW.
        """
        if not data:
            raise InvalidArgument("cannot append an empty record")
        payload = records.encode(records.REC_JOURNAL, {
            "jid": self.jid,
            "epoch": self.epoch,
            "seq": self.head_slot,
            "data": data,
        })
        nslots = (len(payload) + SLOT_SIZE - 1) // SLOT_SIZE
        if self.head_slot + nslots > self.nslots:
            raise NoSpace(f"journal {self.jid} full")
        first_slot = self.head_slot
        start = self.store.clock.now()
        self.store.retry.run(
            lambda: self.store.device.write(self._slot_offset(first_slot),
                                            payload, sync=True),
            op="journal.append")
        self._observe_append(start, len(payload))
        self.head_slot += nslots
        self.appends += 1
        return first_slot

    def _observe_append(self, start_ns: int, nbytes: int) -> None:
        registry = telemetry.registry()
        # A span (feeding the same-name histogram) so journal appends
        # issued inside a traced operation land in its causal tree.
        registry.record_span("journal.append", start_ns,
                             self.store.clock.now(), jid=self.jid)
        registry.counter("journal.bytes_appended",
                         jid=self.jid).add(nbytes)

    def append_synthetic(self, nbytes: int, seed: int = 0) -> int:
        """Benchmark path: append ``nbytes`` of synthetic payload.

        Identical device accounting to :meth:`append` without
        materializing the bytes (Table 5 journals a 1 GiB region).
        """
        from ..hw.nvme import synthetic_payload

        if nbytes <= 0:
            raise InvalidArgument("cannot append an empty record")
        framed = nbytes + 256  # envelope overhead, charged like append
        nslots = (framed + SLOT_SIZE - 1) // SLOT_SIZE
        if self.head_slot + nslots > self.nslots:
            raise NoSpace(f"journal {self.jid} full")
        first_slot = self.head_slot
        start = self.store.clock.now()
        self.store.retry.run(
            lambda: self.store.device.write(self._slot_offset(first_slot),
                                            synthetic_payload(seed, framed),
                                            sync=True),
            op="journal.append")
        self._observe_append(start, framed)
        self.head_slot += nslots
        self.appends += 1
        return first_slot

    def truncate(self) -> None:
        """Reset the journal (one sync header write bumping the epoch)."""
        self.epoch += 1
        self.head_slot = 1
        self._write_header()

    # -- recovery ----------------------------------------------------------------

    def replay(self) -> List[bytes]:
        """Read back every record of the current epoch, in order.

        The header slot is authoritative for the epoch — a truncate
        may have happened after the last superblock write.
        """
        if self.store.device.has_extent(self.base):
            header = records.decode(self.store.device.read(self.base),
                                    records.REC_JOURNAL)
            self.epoch = header["epoch"]
        out: List[bytes] = []
        slot = 1
        while slot < self.nslots:
            offset = self._slot_offset(slot)
            if not self.store.device.has_extent(offset):
                break
            try:
                raw = self.store.device.read(offset)
                if not isinstance(raw, bytes):
                    break
                body = records.decode(raw, records.REC_JOURNAL)
            except (CorruptRecord, StoreError):
                break
            if body.get("header") or body["epoch"] != self.epoch:
                break
            out.append(body["data"])
            slot += (len(raw) + SLOT_SIZE - 1) // SLOT_SIZE
        self.head_slot = slot
        return out

    def encode_meta(self) -> dict:
        """Directory entry persisted in the superblock."""
        return {"jid": self.jid, "base": self.base,
                "capacity": self.capacity, "epoch": self.epoch}

    @classmethod
    def decode_meta(cls, store: Any, raw: dict) -> "Journal":
        """Rebuild a journal handle from its directory entry."""
        journal = cls(store, raw["jid"], raw["base"], raw["capacity"],
                      raw["epoch"])
        return journal

    def __repr__(self) -> str:
        return (f"Journal(jid={self.jid}, epoch={self.epoch}, "
                f"slot={self.head_slot}/{self.nslots})")

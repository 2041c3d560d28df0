"""A key-value service directly on the paged state region.

Exercises the raw state-management contract (modify-before-write, fixed
slots) without the SQL layer — the style of application the original PBFT
library was actually comfortable with, for contrast with
:mod:`repro.apps.sqlapp`.
"""

from __future__ import annotations

import functools
import struct

from repro.common.errors import StateError
from repro.common.units import MICROSECOND
from repro.crypto.digests import md5_digest
from repro.pbft.messages import message
from repro.pbft.replica import Application
from repro.pbft.wire import blob, decode_exact, layout, raw, seq, tagged

_SLOT = struct.Struct(">B16sH")  # in_use, key digest, value length
_NEAR_PROBES = 4  # slots probed one by one before the table is searched whole

KV_OP = tagged("KvOp")


@message(family=KV_OP)
class Put:
    key: bytes
    value: bytes

    LAYOUT = layout(0x01, key=blob, value=blob)


@message(family=KV_OP)
class Get:
    key: bytes

    LAYOUT = layout(0x02, key=blob)


@message
class KvChunk:
    """Migration chunk: (key digest, value) of slots leaving with a range."""

    records: tuple[tuple[bytes, bytes], ...]

    LAYOUT = layout(records=seq(raw(16), blob))


def encode_put(key: bytes, value: bytes) -> bytes:
    return Put(key, value).encode()


# Shared like ``sqlapp.decode_sql_op``: one op is decoded by its router, by
# the lock-key scan at every replica and again to execute.  A malformed op
# raises every time: lru_cache stores no exceptions.
_decode_op = functools.lru_cache(maxsize=256)(functools.partial(decode_exact, KV_OP))


def keys_of_op(op: bytes) -> tuple[bytes, ...]:
    """The keys a kv operation touches — the sharding layer's routing and
    locking unit (see :mod:`repro.shard`)."""
    return (_decode_op(op).key,)


class KvApplication(Application):
    """Fixed-slot hash table over the state region.

    Keys hash to one of ``num_slots`` fixed-size slots (open addressing
    with linear probing); each slot holds the key digest and up to
    ``value_size`` bytes of value.
    """

    def __init__(self, num_slots: int = 512, value_size: int = 256) -> None:
        self.num_slots = num_slots
        self.value_size = value_size
        self.slot_size = _SLOT.size + value_size
        self.state = None
        self.app_offset = 0
        self.puts = 0
        self.gets = 0

    def bind_state(self, state, app_offset: int) -> None:
        needed = self.num_slots * self.slot_size
        if app_offset + needed > state.size:
            raise StateError(
                f"kv store needs {needed} bytes, state has "
                f"{state.size - app_offset}"
            )
        self.state = state
        self.app_offset = app_offset

    def execute(self, op: bytes, client_id: int, nondet_ts: int, readonly: bool) -> bytes:
        request = _decode_op(op)
        if type(request) is Put:
            return self._put(request.key, request.value)
        return self._get(request.key)

    def execute_cost_ns(self, op: bytes, readonly: bool) -> int:
        return 5 * MICROSECOND

    def _slot_offset(self, slot: int) -> int:
        return self.app_offset + slot * self.slot_size

    def _find_slot(self, digest: bytes) -> tuple[int, bool]:
        """(slot, exists): the slot holding the key, or the first free one
        (-1 when the key is new and every slot is taken).

        A free slot does not end the probe sequence (``migrate_purge``
        leaves holes), so a key is only known missing once every slot was
        looked at.  A stored key sits within a few probes of its home slot;
        past those the whole table is read once and searched with
        ``bytes.find``, so a key's first insert does not cost one read per
        slot.
        """
        num_slots = self.num_slots
        start = int.from_bytes(digest[:4], "big") % num_slots
        first_free = -1
        for probe in range(min(_NEAR_PROBES, num_slots)):
            slot = (start + probe) % num_slots
            raw = self.state.read(self._slot_offset(slot), _SLOT.size)
            in_use, stored, _length = _SLOT.unpack(raw)
            if in_use and stored == digest:
                return slot, True
            if not in_use and first_free < 0:
                first_free = slot
        size = self.slot_size
        table = self.state.read(self.app_offset, num_slots * size)
        nearest = -1  # probe distance of the closest slot holding the key
        at = table.find(digest)
        while at >= 0:
            # The digest follows the in-use byte; anywhere else it is value data.
            slot, within = divmod(at - 1, size)
            if within == 0 and table[at - 1]:
                distance = (slot - start) % num_slots
                if nearest < 0 or distance < nearest:
                    nearest = distance
            at = table.find(digest, at + 1)
        if nearest >= 0:
            return (start + nearest) % num_slots, True
        if first_free < 0:
            in_use_flags = table[::size]
            first_free = in_use_flags.find(0, start)
            if first_free < 0:
                first_free = in_use_flags.find(0, 0, start)
        return first_free, False

    def _put(self, key: bytes, value: bytes) -> bytes:
        if len(value) > self.value_size:
            return b"\x00ERR value too large"
        if not self._store(md5_digest(key), value):
            return b"\x00ERR kv store is full"
        self.puts += 1
        return b"\x01OK"

    def _store(self, digest: bytes, value: bytes) -> bool:
        slot, _exists = self._find_slot(digest)
        if slot < 0:
            return False
        offset = self._slot_offset(slot)
        self.state.modify(offset, self.slot_size)
        self.state.write(offset, _SLOT.pack(1, digest, len(value)) + value)
        return True

    def _get(self, key: bytes) -> bytes:
        digest = md5_digest(key)
        slot, exists = self._find_slot(digest)
        self.gets += 1
        if not exists:
            return b"\x00MISS"
        raw = self.state.read(self._slot_offset(slot), self.slot_size)
        _in_use, _digest, length = _SLOT.unpack(raw[: _SLOT.size])
        return b"\x01" + raw[_SLOT.size : _SLOT.size + length]

    # -- live rebalancing hooks (driven by repro.shard.txapp) -----------------
    # The migration unit for a kv store is a hash range over the first four
    # digest bytes — the same position the shard directory routes by, so
    # "what the directory sends here" and "what migration moves away" are
    # the same set by construction.

    def _range_of(self, unit) -> tuple[int, int]:
        try:
            return unit.lo, unit.hi
        except AttributeError:
            raise StateError("kv stores migrate key ranges, not tables") from None

    def migrate_export(self, unit, cursor: int, budget: int):
        """Serialize (digest, value) records for slots >= ``cursor`` whose
        position falls in the unit, up to ~``budget`` bytes; returns
        (chunk, next_cursor, done).  Deterministic given frozen contents."""
        lo, hi = self._range_of(unit)
        records = []
        used = 0
        slot = cursor
        while slot < self.num_slots and used < budget:
            raw = self.state.read(self._slot_offset(slot), self.slot_size)
            in_use, digest, length = _SLOT.unpack(raw[: _SLOT.size])
            if in_use and lo <= int.from_bytes(digest[:4], "big") < hi:
                records.append((digest, raw[_SLOT.size : _SLOT.size + length]))
                used += _SLOT.size + length
            slot += 1
        return KvChunk(tuple(records)).encode(), slot, slot >= self.num_slots

    def migrate_install(self, unit, chunk: bytes) -> None:
        self._range_of(unit)
        for digest, value in decode_exact(KvChunk, chunk).records:
            if len(value) > self.value_size or not self._store(digest, value):
                raise StateError("kv store cannot hold the chunk")

    def migrate_purge(self, unit) -> None:
        """Clear every slot in the unit.  Safe under linear probing because
        ``_find_slot`` scans all slots rather than stopping at the first
        free one, so emptying a slot never hides a later chain member."""
        lo, hi = self._range_of(unit)
        empty = _SLOT.pack(0, bytes(16), 0)
        for slot in range(self.num_slots):
            offset = self._slot_offset(slot)
            raw = self.state.read(offset, _SLOT.size)
            in_use, digest, _length = _SLOT.unpack(raw)
            if in_use and lo <= int.from_bytes(digest[:4], "big") < hi:
                self.state.modify(offset, _SLOT.size)
                self.state.write(offset, empty)

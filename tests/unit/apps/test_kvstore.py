"""The key-value application on the raw state region."""

import random

import pytest

from repro.apps.kvstore import _SLOT, Get, KvApplication, encode_put
from repro.common.errors import ProtocolError
from repro.crypto.digests import md5_digest
from repro.statemgr.pages import PagedState


@pytest.fixture()
def app():
    application = KvApplication(num_slots=16, value_size=64)
    state = PagedState(16, 512)
    application.bind_state(state, app_offset=0)
    application._state = state
    return application


def run(app, op):
    result = app.execute(op, client_id=1, nondet_ts=0, readonly=False)
    app.state.end_of_execution()
    return result


def test_get_missing_key(app):
    assert run(app, Get(b"nope").encode()) == b"\x00MISS"


def test_put_then_get(app):
    assert run(app, encode_put(b"k", b"value")) == b"\x01OK"
    assert run(app, Get(b"k").encode()) == b"\x01value"


def test_overwrite(app):
    run(app, encode_put(b"k", b"one"))
    run(app, encode_put(b"k", b"two"))
    assert run(app, Get(b"k").encode()) == b"\x01two"


def test_many_keys_with_collisions(app):
    for i in range(12):
        run(app, encode_put(f"key{i}".encode(), f"v{i}".encode()))
    for i in range(12):
        assert run(app, Get(f"key{i}".encode()).encode()) == f"\x01v{i}".encode()


def test_value_too_large_rejected(app):
    assert run(app, encode_put(b"k", b"x" * 100)).startswith(b"\x00ERR")


def test_store_full(app):
    for i in range(16):
        run(app, encode_put(f"key{i:02d}".encode(), b"v"))
    before = app.state.refresh_tree()
    assert run(app, encode_put(b"onemore", b"v")) == b"\x00ERR kv store is full"
    assert run(app, Get(b"onemore").encode()) == b"\x00MISS"
    assert app.state.refresh_tree() == before  # refused before any write
    assert run(app, encode_put(b"key03", b"w")) == b"\x01OK"  # a stored key still updates


def test_state_identical_for_identical_histories():
    def build():
        app = KvApplication(num_slots=16, value_size=64)
        state = PagedState(16, 512)
        app.bind_state(state, 0)
        for i in range(8):
            app.execute(encode_put(f"k{i}".encode(), b"v"), 1, 0, False)
            state.end_of_execution()
        return state.refresh_tree()

    assert build() == build()


def test_bad_op_rejected(app):
    for op in (b"\xee???", b"", b"\x01\x00\x00", Get(b"k").encode() + b"\x00"):
        with pytest.raises(ProtocolError):  # Replica._answer's REPLY_MALFORMED_OP
            run(app, op)


# -- _find_slot against the slot-by-slot probe it replaced ---------------------


def _probe_every_slot(app, digest):
    """The old _find_slot: first in-use match in probe order, else first free."""
    start = int.from_bytes(digest[:4], "big") % app.num_slots
    first_free = -1
    for probe in range(app.num_slots):
        slot = (start + probe) % app.num_slots
        in_use, stored, _length = _SLOT.unpack(app.state.read(app._slot_offset(slot), _SLOT.size))
        if in_use and stored == digest:
            return slot, True
        if not in_use and first_free < 0:
            first_free = slot
    return first_free, False  # -1: the store is full


def _set_slot(app, slot, in_use, digest, value=b""):
    offset = app._slot_offset(slot)
    app.state.modify(offset, app.slot_size)
    app.state.write(offset, _SLOT.pack(in_use, digest, len(value)) + value)
    app.state.end_of_execution()


def _digest_homed_at(slot, tail):
    return slot.to_bytes(4, "big") + bytes([tail]) * 12


def test_find_slot_matches_full_probe_on_random_tables():
    rng = random.Random(7)
    for num_slots, app_offset in ((1, 0), (3, 100), (16, 0), (37, 700)):
        app = KvApplication(num_slots=num_slots, value_size=40)
        # 59 + 700 bytes per slot run: slots straddle the 512-byte pages.
        app.bind_state(PagedState(16, 512), app_offset=app_offset)
        digests = [md5_digest(bytes([i])) for i in range(num_slots + 6)]
        for _round in range(60):
            slot = rng.randrange(num_slots)
            kind = rng.random()
            if kind < 0.5:  # a stored key, anywhere (duplicates included)
                _set_slot(app, slot, 1, rng.choice(digests), b"v")
            elif kind < 0.8:  # a purge hole: header cleared, old digest gone
                _set_slot(app, slot, 0, bytes(16))
            else:  # a digest as value bytes, and a free slot still naming a key
                _set_slot(app, slot, rng.randrange(2), bytes(16), rng.choice(digests))
                _set_slot(app, rng.randrange(num_slots), 0, rng.choice(digests))
            for digest in digests:
                assert app._find_slot(digest) == _probe_every_slot(app, digest)


def test_find_slot_far_from_home_wraps_and_prefers_the_nearest_copy():
    app = KvApplication(num_slots=16, value_size=8)
    app.bind_state(PagedState(16, 512), app_offset=0)
    key = _digest_homed_at(14, 0xAB)
    for slot in range(16):
        _set_slot(app, slot, 1, _digest_homed_at(slot, 0x01))
    assert app._find_slot(key) == (-1, False)  # full
    _set_slot(app, 9, 1, key)   # probe distance 11
    _set_slot(app, 3, 1, key)   # probe distance 5, past the near probes
    assert app._find_slot(key) == (3, True)
    _set_slot(app, 3, 0, key)   # freed but the digest bytes stay
    assert app._find_slot(key) == (9, True)
    _set_slot(app, 9, 0, bytes(16))
    assert app._find_slot(key) == (3, False)  # first free after 14 wraps to 3

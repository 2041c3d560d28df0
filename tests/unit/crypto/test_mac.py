"""UMAC32-style MACs."""

import pytest

from repro.common.errors import CryptoError
from repro.crypto.mac import MAC_SIZE, MacKey, compute_mac, verify_mac
from repro.sim.rng import RngStreams


def key(seed=1, name="k"):
    return MacKey.generate(RngStreams(seed).stream(name))


def test_tag_is_four_bytes():
    assert len(compute_mac(key(), b"data")) == MAC_SIZE == 4


def test_verify_accepts_genuine_tag():
    k = key()
    assert verify_mac(k, b"data", compute_mac(k, b"data"))


def test_verify_rejects_modified_data():
    k = key()
    tag = compute_mac(k, b"data")
    assert not verify_mac(k, b"datb", tag)


def test_verify_rejects_wrong_key():
    tag = compute_mac(key(1), b"data")
    assert not verify_mac(key(2), b"data", tag)


def test_verify_rejects_wrong_length_tag():
    k = key()
    assert not verify_mac(k, b"data", b"\x00" * 5)


def test_key_generation_is_deterministic_from_stream():
    assert key(7) == key(7)
    assert key(7) != key(8)


def test_key_requires_16_bytes():
    with pytest.raises(CryptoError):
        MacKey(b"short")


def test_keys_hashable_for_dict_use():
    assert len({key(1), key(1), key(2)}) == 2


def test_compute_mac_is_hmac_md5_in_both_cache_modes():
    # compute_mac copies precomputed inner/outer MD5 states instead of
    # re-deriving the HMAC key schedule; it must stay byte-identical to
    # the standard library's HMAC, both when a call builds the key's
    # schedule (cold) and when it reuses it (warm).
    import hashlib
    import hmac as hmac_mod

    rng = RngStreams(123).stream("hmac-vectors")
    for _ in range(50):
        k = MacKey.generate(rng)
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        reference = hmac_mod.new(k.key, data, hashlib.md5).digest()[:MAC_SIZE]
        assert k._iproto is None
        assert compute_mac(k, data) == reference  # cold
        assert k._iproto is not None
        assert compute_mac(k, data) == reference  # warm


def test_mac_tag_is_pinned():
    # Recorded with the previous hashlib/hmac-backed MAC: a primitive swap
    # must not move a tag.
    assert compute_mac(MacKey(bytes(range(16))), b"hello world").hex() == "9757aec2"


def test_key_schedule_memo_survives_repeated_use():
    k = key()
    first = compute_mac(k, b"a")
    assert compute_mac(k, b"a") == first
    assert compute_mac(k, b"b") != first  # distinct data, fresh tag
    assert verify_mac(k, b"a", first)

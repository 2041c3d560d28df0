"""The hashing seam: built-in MD5/SHA-256 equal hashlib's, and the pins that
a primitive swap must not move."""

import hashlib

import pytest

from repro.crypto.digests import (
    DIGEST_SIZE, compare_digest, digest_parts, digest_state, md5, md5_digest, sha256,
)
from repro.sim.rng import RngStreams
from repro.sqlstate.vfs import VfsEnvironment

LENGTHS = (0, 1, 55, 56, 63, 64, 65, 4096, 1 << 20)  # around MD5/SHA-256 padding edges


def test_digest_size():
    assert len(md5_digest(b"abc")) == DIGEST_SIZE == 16


def test_matches_hashlib():
    assert md5_digest(b"hello") == hashlib.md5(b"hello").digest()


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("kind", (bytes, bytearray, memoryview))
def test_md5_and_sha256_equal_hashlib(length, kind):
    raw = bytes((i * 131 + 7) & 0xFF for i in range(length))
    data = kind(raw)
    assert md5(data).digest() == hashlib.md5(raw).digest()
    assert md5_digest(data) == hashlib.md5(raw).digest()
    assert sha256(data).digest() == hashlib.sha256(raw).digest()
    fed = md5()
    fed.update(data)
    assert fed.hexdigest() == hashlib.md5(raw).hexdigest()


def test_digest_state_copy_forks():
    prefix = digest_state(b"prefix|")
    left, right = prefix.copy(), prefix.copy()
    left.update(b"left")
    right.update(b"right")
    assert left.digest() == md5_digest(b"prefix|left")
    assert right.digest() == md5_digest(b"prefix|right")
    assert prefix.digest() == md5_digest(b"prefix|")


def test_compare_digest():
    assert compare_digest(b"\x01\x02\x03\x04", b"\x01\x02\x03\x04")
    assert not compare_digest(b"\x01\x02\x03\x04", b"\x01\x02\x03\x05")
    assert not compare_digest(b"\x01\x02\x03", b"\x01\x02\x03\x04")
    assert compare_digest(b"", b"")


def test_digest_parts_equals_concatenation():
    assert digest_parts([b"ab", b"cd", b""]) == md5_digest(b"abcd")


def test_different_inputs_differ():
    assert md5_digest(b"a") != md5_digest(b"b")


# Recorded with the previous hashlib-backed primitives: a swap that moved
# these would re-seed every RNG stream and every SQL random() silently.


@pytest.mark.parametrize("name, first_draw", [
    ("net.loss", 7084885422329708686),
    ("net.jitter", 18186405538251716767),
    ("bench-joins", 6744835459638610806),
])
def test_rng_stream_seeds_are_pinned(name, first_draw):
    assert RngStreams(3).stream(name).getrandbits(64) == first_draw


def test_vfs_random_bytes_are_pinned():
    env = VfsEnvironment()
    env.set_from_nondet(123, bytes(range(16)))
    assert env.random_bytes(40).hex() == (
        "83ef3431057585639321bbdf2d0e8f98a162d560efdd5e6acbf869c38cdfe966"
        "43a7b54bc25f5ebb"
    )

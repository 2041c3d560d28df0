"""The Rabin signature scheme."""

import hashlib

import pytest

import repro.crypto.rabin as rabin_module
from repro.common.errors import CryptoError
from repro.crypto.rabin import (
    RabinSignature,
    rabin_generate,
    rabin_sign,
    rabin_verify,
)
from repro.sim.rng import RngStreams


@pytest.fixture(scope="module")
def keypair():
    return rabin_generate(RngStreams(11).stream("rabin"), bits=256)


def test_modulus_is_blum_integer(keypair):
    assert keypair.p % 4 == 3
    assert keypair.q % 4 == 3
    assert keypair.p * keypair.q == keypair.public.n


def test_sign_verify_roundtrip(keypair):
    sig = rabin_sign(keypair, b"the message")
    assert rabin_verify(keypair.public, b"the message", sig)


def test_signature_is_square_root(keypair):
    sig = rabin_sign(keypair, b"m")
    # verify() checks s^2 == salted hash; spot-check the arithmetic.
    assert 0 < sig.root < keypair.public.n


def test_verify_rejects_other_message(keypair):
    sig = rabin_sign(keypair, b"message one")
    assert not rabin_verify(keypair.public, b"message two", sig)


def test_verify_rejects_tampered_root(keypair):
    sig = rabin_sign(keypair, b"m")
    bad = RabinSignature(salt=sig.salt, root=(sig.root + 1) % keypair.public.n)
    assert not rabin_verify(keypair.public, b"m", bad)


def test_verify_rejects_wrong_salt(keypair):
    sig = rabin_sign(keypair, b"m")
    bad = RabinSignature(salt=sig.salt + 1, root=sig.root)
    assert not rabin_verify(keypair.public, b"m", bad)


def test_verify_rejects_out_of_range_root(keypair):
    sig = rabin_sign(keypair, b"m")
    assert not rabin_verify(
        keypair.public, b"m", RabinSignature(salt=sig.salt, root=0)
    )
    assert not rabin_verify(
        keypair.public, b"m", RabinSignature(salt=sig.salt, root=keypair.public.n)
    )


@pytest.mark.parametrize("salt", [-1, 1 << 16, 70000])
def test_verify_rejects_out_of_range_salt(keypair, salt):
    # Two bytes on the wire: anything else is a bad signature, and must not
    # surface as OverflowError from the salt's encoding.
    sig = rabin_sign(keypair, b"m")
    assert not rabin_verify(keypair.public, b"m", RabinSignature(salt=salt, root=sig.root))


def test_other_key_cannot_verify(keypair):
    other = rabin_generate(RngStreams(12).stream("rabin"), bits=256)
    sig = rabin_sign(keypair, b"m")
    assert not rabin_verify(other.public, b"m", sig)


def test_keygen_deterministic_from_seed():
    a = rabin_generate(RngStreams(5).stream("r"), bits=128)
    b = rabin_generate(RngStreams(5).stream("r"), bits=128)
    assert a.public.n == b.public.n


def test_tiny_modulus_rejected():
    with pytest.raises(CryptoError):
        rabin_generate(RngStreams(1).stream("r"), bits=16)


def test_signature_size_reported(keypair):
    sig = rabin_sign(keypair, b"m")
    assert sig.size_bytes >= 2 + 256 // 8 - 2


def _reference_salted_value(message, salt, n):
    """The pre-optimization hash, kept verbatim: message and salt
    concatenated and hashed in one go."""
    raw = hashlib.md5(message + salt.to_bytes(2, "big")).digest()
    return int.from_bytes(raw, "big") % n


def _reference_sign(key, message):
    """The pre-optimization signer, kept verbatim as the oracle: Euler's
    criterion and the root as separate exponentiations, both primes tested
    before either root, and the CRT inverse recomputed per signature."""
    from repro.crypto.rabin import _MAX_SALT

    p, q, n = key.p, key.q, key.public.n
    for salt in range(_MAX_SALT):
        u = _reference_salted_value(message, salt, n)
        if u == 0:
            continue
        if pow(u, (p - 1) // 2, p) != 1 or pow(u, (q - 1) // 2, q) != 1:
            continue
        root_p = pow(u, (p + 1) // 4, p)
        root_q = pow(u, (q + 1) // 4, q)
        q_inv_p = pow(q, -1, p)
        s = (root_q + q * ((root_p - root_q) * q_inv_p % p)) % n
        return RabinSignature(salt=salt, root=s)
    raise AssertionError("no residue salt")


# Lengths (before the 2 salt bytes) around MD5's 64-byte block and its
# 56-byte padding boundary, where hashing the salt onto a forked state and
# hashing ``message + salt`` would part ways if the state were misused.
_BOUNDARY_LENGTHS = (0, 1, 54, 55, 56, 62, 63, 64, 65, 118, 119, 120, 1024, 1090)


@pytest.mark.parametrize("seed,bits", [(21, 128), (22, 256), (23, 512), (24, 1024)])
def test_signatures_identical_to_reference_algorithm(seed, bits):
    # Same salt and same root, hence the same size_bytes on the simulated
    # wire: the symbol search must not change a single signature.
    key = rabin_generate(RngStreams(seed).stream("rabin"), bits=bits)
    assert key.q_inv_p == pow(key.q, -1, key.p)
    count = 500 if bits <= 512 else 60  # the reference takes 4 ms a signature at 1024
    messages = [f"message-{seed}-{i}".encode() * (1 + i % 7) for i in range(count)]
    messages += [bytes([seed]) * length for length in _BOUNDARY_LENGTHS]
    for message in messages:
        sig = rabin_sign(key, message)
        assert sig == _reference_sign(key, message)
        assert rabin_verify(key.public, message, sig)


@pytest.mark.parametrize("length", _BOUNDARY_LENGTHS)
def test_salted_value_equals_hash_of_concatenation(keypair, length):
    n = keypair.public.n
    message = bytes(range(256)) * 5
    for salt in (0, 1, 255, 256, 65535):
        assert rabin_module._salted_value(message[:length], salt, n) == (
            _reference_salted_value(message[:length], salt, n)
        )


def test_exactly_two_exponentiations_per_signature(keypair, monkeypatch):
    # Rejected salts cost Legendre symbols only; the reference algorithm
    # averages six exponentiations per signature on the same messages.
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(rabin_module, "pow", counting_pow, raising=False)
    salts = 0
    for i in range(500):
        before = len(calls)
        salts += rabin_sign(keypair, f"count-{i}".encode()).salt + 1
        assert len(calls) - before == 2
    assert salts > 1500  # ~4 salts tried per signature: rejections happened


def test_multiples_of_a_prime_factor_are_not_residues():
    # u % p == 0 (or u % q == 0) must be skipped exactly as the reference
    # does (Euler's criterion yields 0, not 1).  With 16-bit primes such
    # hashes actually occur, so the salts must still agree.
    from repro.crypto.rabin import _salted_value

    key = rabin_generate(RngStreams(31).stream("rabin"), bits=32)
    n = key.public.n
    degenerate = 0
    for i in range(40_000):
        message = i.to_bytes(4, "big")
        sig = rabin_sign(key, message)
        assert sig == _reference_sign(key, message)
        for salt in range(sig.salt):
            u = _salted_value(message, salt, n)
            degenerate += u % key.p == 0 or u % key.q == 0
    assert degenerate > 0  # the case was actually exercised

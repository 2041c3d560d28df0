"""The Rabin signature scheme."""

import pytest

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


def _reference_sign(key, message):
    """The pre-optimization signer, kept verbatim as the oracle: Euler's
    criterion and the root as separate exponentiations, both primes tested
    before either root, and the CRT inverse recomputed per signature."""
    from repro.crypto.rabin import _MAX_SALT, _salted_value

    p, q, n = key.p, key.q, key.public.n
    for salt in range(_MAX_SALT):
        u = _salted_value(message, salt, n)
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


@pytest.mark.parametrize("seed,bits", [(21, 128), (22, 256), (23, 512)])
def test_signatures_identical_to_reference_algorithm(seed, bits):
    # Same salt and same root, hence the same size_bytes on the simulated
    # wire: the folded Euler test must not change a single signature.
    key = rabin_generate(RngStreams(seed).stream("rabin"), bits=bits)
    assert key.q_inv_p == pow(key.q, -1, key.p)
    for i in range(500):
        message = f"message-{seed}-{i}".encode() * (1 + i % 7)
        sig = rabin_sign(key, message)
        assert sig == _reference_sign(key, message)
        assert rabin_verify(key.public, message, sig)


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

"""The Rabin signature scheme."""

import copy
import ctypes.util
import hashlib
import os
import pickle
import subprocess
import sys

import pytest

import repro
import repro.crypto.rabin as rabin_module
from repro.common.errors import CryptoError
from repro.crypto import gmp
from repro.crypto.rabin import (
    RabinKeyPair,
    RabinSignature,
    rabin_generate,
    rabin_sign,
    rabin_verify,
)
from repro.sim.rng import RngStreams


@pytest.fixture(scope="module")
def keypair():
    return rabin_generate(RngStreams(11).stream("rabin"), bits=256)


def backends(monkeypatch):
    """Yield each backend the host has, running the loop body on it.  A key
    binds its backend on its first signature, so a body that signs
    generates its own keys."""
    real = gmp.library
    monkeypatch.setattr(gmp, "library", lambda: None)
    yield "python"
    monkeypatch.setattr(gmp, "library", real)
    if real() is not None:
        yield "native"


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
def test_signatures_identical_to_reference_algorithm(seed, bits, monkeypatch):
    # Same salt and same root, hence the same size_bytes on the simulated
    # wire: neither the symbol search nor the backend may change a single
    # signature.
    count = 500 if bits <= 512 else 60  # the reference takes 4 ms a signature at 1024
    messages = [f"message-{seed}-{i}".encode() * (1 + i % 7) for i in range(count)]
    messages += [bytes([seed]) * length for length in _BOUNDARY_LENGTHS]
    for _backend in backends(monkeypatch):
        key = rabin_generate(RngStreams(seed).stream("rabin"), bits=bits)
        assert key.q_inv_p == pow(key.q, -1, key.p)
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


def test_exactly_two_exponentiations_per_signature(monkeypatch):
    # Rejected salts cost Legendre symbols only; the reference algorithm
    # averages six exponentiations per signature on the same messages.
    # Counted as Python ``pow`` calls on one backend and as the binding's
    # ``powm`` calls on the other, which must then make no ``pow`` call.
    pows, powms = [], []

    def counting_pow(*args):
        pows.append(args)
        return pow(*args)

    real_powm = gmp.Registers.powm

    def counting_powm(registers, *args):
        powms.append(args)
        return real_powm(registers, *args)

    monkeypatch.setattr(gmp.Registers, "powm", counting_powm)
    for backend in backends(monkeypatch):
        key = rabin_generate(RngStreams(11).stream("rabin"), bits=256)
        calls, idle = (pows, powms) if backend == "python" else (powms, pows)
        pows.clear()
        powms.clear()
        salts = 0
        with monkeypatch.context() as patch:
            patch.setattr(rabin_module, "pow", counting_pow, raising=False)
            for i in range(500):
                before = len(calls)
                salts += rabin_sign(key, f"count-{i}".encode()).salt + 1
                assert len(calls) - before == 2
        assert idle == []
        assert salts > 1500  # ~4 salts tried per signature: rejections happened


def test_multiples_of_a_prime_factor_are_not_residues(monkeypatch):
    # u % p == 0 (or u % q == 0) must be skipped exactly as the reference
    # does (Euler's criterion yields 0, not 1).  With 16-bit primes such
    # hashes actually occur, so the salts must still agree.
    from repro.crypto.rabin import _salted_value

    for _backend in backends(monkeypatch):
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


@pytest.mark.parametrize("seed,bits", [(51, 32), (52, 64), (53, 256), (54, 1024)])
def test_key_generation_is_the_same_on_both_backends(seed, bits, monkeypatch):
    if gmp.library() is None:
        pytest.skip("libgmp does not load here")
    native_rng = RngStreams(seed).stream("rabin")
    native = rabin_generate(native_rng, bits=bits)
    monkeypatch.setattr(gmp, "library", lambda: None)
    python_rng = RngStreams(seed).stream("rabin")
    python = rabin_generate(python_rng, bits=bits)
    assert (native.p, native.q) == (python.p, python.q)
    # The same witnesses were drawn: the streams are at the same point.
    assert native_rng.getrandbits(64) == python_rng.getrandbits(64)


def test_importing_the_package_loads_no_library():
    # find_library starts a process; it runs on the first signature only.
    probe = (
        "import repro.crypto, repro.pbft, repro.crypto.gmp as g;"
        "assert g.library.cache_info().currsize == 0"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=60)


def test_signing_runs_native_wherever_libgmp_is_installed():
    # A broken binding must fail here, not fall back to Python silently.
    if ctypes.util.find_library("gmp") is None:
        pytest.skip("no libgmp on this host")
    assert gmp.library() is not None
    key = rabin_generate(RngStreams(13).stream("rabin"), bits=128)
    rabin_sign(key, b"m")
    assert isinstance(key._roots, rabin_module._NativeRoots)


def test_a_key_that_has_signed_pickles_compares_and_hashes_as_before():
    key = rabin_generate(RngStreams(14).stream("rabin"), bits=256)
    fresh = RabinKeyPair(public=key.public, p=key.p, q=key.q)
    before = rabin_sign(key, b"m")
    assert key._roots is not None
    for other in (pickle.loads(pickle.dumps(key)), copy.deepcopy(key), fresh):
        assert other == key and hash(other) == hash(key)
        assert repr(other) == repr(key)
        assert rabin_sign(other, b"m") == before
        assert rabin_sign(key, b"other") == rabin_sign(other, b"other")

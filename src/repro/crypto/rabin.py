"""The Rabin signature scheme, as used by the original PBFT codebase.

Rabin was chosen by Castro & Liskov because verification is a single
modular squaring — far cheaper than signing, which needs a modular square
root.  We implement the standard construction:

* keys: ``n = p * q`` with ``p ≡ q ≡ 3 (mod 4)`` (Blum integers), so the
  principal square root of a quadratic residue ``u`` mod p is
  ``u**((p+1)//4) mod p``;
* signing: hash the message together with an incrementing salt until the
  hash value is a quadratic residue mod both primes, then take the CRT
  combination of the two roots;
* verification: recompute the salted hash and check ``s*s ≡ u (mod n)``.

Key sizes in the tests are small (the simulation charges the *cost model's*
time, not wall time), but the arithmetic is the real thing: forged or
corrupted signatures genuinely fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import CryptoError
from repro.crypto.digests import md5_digest
from repro.crypto.primes import random_prime

_MAX_SALT = 1 << 16


@dataclass(frozen=True)
class RabinPublicKey:
    """The public modulus."""

    n: int

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RabinKeyPair:
    """A Rabin key pair; ``p * q == public.n``."""

    public: RabinPublicKey
    p: int
    q: int
    # q^-1 mod p for the CRT combination, derived once per key.
    q_inv_p: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q_inv_p", pow(self.q, -1, self.p))


@dataclass(frozen=True)
class RabinSignature:
    """A signature: the salt that made the hash a residue, plus the root."""

    salt: int
    root: int

    @property
    def size_bytes(self) -> int:
        return 2 + (self.root.bit_length() + 7) // 8


def rabin_generate(rng, bits: int = 512) -> RabinKeyPair:
    """Generate a key pair with a ``bits``-bit modulus."""
    if bits < 32:
        raise CryptoError("modulus too small to be meaningful")
    half = bits // 2
    p = random_prime(half, rng, congruence=(4, 3))
    q = random_prime(bits - half, rng, congruence=(4, 3))
    while q == p:
        q = random_prime(bits - half, rng, congruence=(4, 3))
    return RabinKeyPair(public=RabinPublicKey(p * q), p=p, q=q)


def _salted_value(message: bytes, salt: int, n: int) -> int:
    raw = md5_digest(message + salt.to_bytes(2, "big"))
    return int.from_bytes(raw, "big") % n


def rabin_sign(key: RabinKeyPair, message: bytes) -> RabinSignature:
    """Sign ``message``: find a salt making its hash a residue, take a root.

    For ``p ≡ 3 (mod 4)``, ``r = u**((p+1)//4) mod p`` squares to ``u`` iff
    ``u`` is a quadratic residue, so the candidate root doubles as Euler's
    criterion: one exponentiation per prime instead of two, and ``q`` is
    only touched once ``p`` accepted the salt.
    """
    p, q, n = key.p, key.q, key.public.n
    for salt in range(_MAX_SALT):
        u = _salted_value(message, salt, n)
        u_p = u % p
        root_p = pow(u_p, (p + 1) // 4, p)
        # A multiple of p (or q) is rejected like any non-residue.
        if u_p == 0 or root_p * root_p % p != u_p:
            continue
        u_q = u % q
        root_q = pow(u_q, (q + 1) // 4, q)
        if u_q == 0 or root_q * root_q % q != u_q:
            continue
        # CRT combine: s ≡ root_p (mod p), s ≡ root_q (mod q).
        s = (root_q + q * ((root_p - root_q) * key.q_inv_p % p)) % n
        return RabinSignature(salt=salt, root=s)
    raise CryptoError("could not find a quadratic-residue salt (astronomically unlikely)")


def rabin_verify(public: RabinPublicKey, message: bytes, signature: RabinSignature) -> bool:
    """Verify with one modular squaring."""
    if not 0 < signature.root < public.n:
        return False
    u = _salted_value(message, signature.salt, public.n)
    return (signature.root * signature.root) % public.n == u

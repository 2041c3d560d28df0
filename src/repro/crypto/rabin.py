"""The Rabin signature scheme, as used by the original PBFT codebase.

Rabin was chosen by Castro & Liskov because verification is a single
modular squaring — far cheaper than signing, which needs a modular square
root.  We implement the standard construction:

* keys: ``n = p * q`` with ``p ≡ q ≡ 3 (mod 4)`` (Blum integers), so the
  principal square root of a quadratic residue ``u`` mod p is
  ``u**((p+1)//4) mod p``;
* signing: hash the message together with an incrementing salt until the
  hash value is a quadratic residue mod both primes — decided by Legendre
  symbols, so a rejected salt costs no exponentiation — then take the CRT
  combination of the two roots.  The symbols and roots run in libgmp when
  it loads (:mod:`repro.crypto.gmp`), else in the pure-Python lines below;
  both give the same signature;
* verification: recompute the salted hash and check ``s*s ≡ u (mod n)``.

Key sizes in the tests are small (the simulation charges the *cost model's*
time, not wall time), but the arithmetic is the real thing: forged or
corrupted signatures genuinely fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import CryptoError
from repro.crypto import gmp
from repro.crypto.digests import digest_state
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
    # Derived once per key: q^-1 mod p for the CRT combination, and the
    # exponents that take a residue to its principal root mod p and mod q.
    q_inv_p: int = field(init=False, repr=False, compare=False)
    root_exp_p: int = field(init=False, repr=False, compare=False)
    root_exp_q: int = field(init=False, repr=False, compare=False)
    # The signer's residue-roots step, bound on the key's first signature.
    _roots: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q_inv_p", pow(self.q, -1, self.p))
        object.__setattr__(self, "root_exp_p", (self.p + 1) // 4)
        object.__setattr__(self, "root_exp_q", (self.q + 1) // 4)

    def __reduce__(self):
        # Native registers do not pickle; a copy binds its own step.
        return (RabinKeyPair, (self.public, self.p, self.q))


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


def _salted_from(midstate, salt: int, n: int) -> int:
    """Hash of message-then-salt mod ``n``, from the digest state after the
    message (left untouched, so the next salt reuses it)."""
    trial = midstate.copy()
    trial.update(salt.to_bytes(2, "big"))
    return int.from_bytes(trial.digest(), "big") % n


def _salted_value(message: bytes, salt: int, n: int) -> int:
    return _salted_from(digest_state(message), salt, n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol ``(a/n)`` for odd positive ``n``: 0 iff
    ``gcd(a, n) > 1``; for prime ``n`` it is the Legendre symbol, i.e. the
    verdict of Euler's criterion ``a**((n-1)//2) mod n`` without the
    exponentiation.

    Euclid's algorithm with two sign rules.  The loop makes no method call:
    a symbol on a 128-bit prime runs it ~47 times.
    """
    a %= n
    sign = 1
    while a:
        if not a & 1:
            low = a & -a  # the power of two dividing a
            a //= low
            # (2/n) = -1 iff n ≡ ±3 (mod 8), and it counts for odd powers
            # of two only: 2**k ≡ 2 (mod 3) iff k is odd.
            if low % 3 == 2 and n & 7 in (3, 5):
                sign = -sign
        # Reciprocity: (a/n) = (n/a), negated iff a ≡ n ≡ 3 (mod 4).
        if a & n & 3 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


class _PythonRoots:
    """The per-key step on CPython integers: both principal roots of ``u``
    if it is a residue mod ``p`` and mod ``q``, else None."""

    __slots__ = ("p", "q", "exp_p", "exp_q")

    def __init__(self, key: RabinKeyPair) -> None:
        self.p, self.q = key.p, key.q
        self.exp_p, self.exp_q = key.root_exp_p, key.root_exp_q

    def __call__(self, u: int):
        p, q = self.p, self.q
        if _jacobi(u, p) != 1 or _jacobi(u, q) != 1:
            return None
        return pow(u, self.exp_p, p), pow(u, self.exp_q, q)


# Register numbers of a key's native step.
_P, _Q, _EXP_P, _EXP_Q, _U, _ROOT = range(6)


class _NativeRoots:
    """The same step in libgmp, on registers holding the key's primes and
    root exponents; ``u`` is below the modulus, so all fit its width."""

    __slots__ = ("registers",)

    def __init__(self, lib: gmp.Gmp, key: RabinKeyPair) -> None:
        self.registers = registers = gmp.Registers(lib, 6, key.public.size_bytes)
        registers.load(_P, key.p)
        registers.load(_Q, key.q)
        registers.load(_EXP_P, key.root_exp_p)
        registers.load(_EXP_Q, key.root_exp_q)

    def __call__(self, u: int):
        registers = self.registers
        registers.load(_U, u)
        if registers.jacobi(_U, _P) != 1 or registers.jacobi(_U, _Q) != 1:
            return None
        registers.powm(_ROOT, _U, _EXP_P, _P)
        root_p = registers.read(_ROOT)
        registers.powm(_ROOT, _U, _EXP_Q, _Q)
        return root_p, registers.read(_ROOT)


def _roots_step(key: RabinKeyPair):
    step = key._roots
    if step is None:
        lib = gmp.library()
        step = _PythonRoots(key) if lib is None else _NativeRoots(lib, key)
        object.__setattr__(key, "_roots", step)
    return step


def rabin_sign(key: RabinKeyPair, message: bytes) -> RabinSignature:
    """Sign ``message``: find a salt making its hash a residue, take a root.

    A salt is accepted iff the hash has Legendre symbol 1 mod ``p`` and mod
    ``q`` (a multiple of either prime has symbol 0 and is rejected like any
    non-residue).  Three salts in four are rejected, so rejecting costs
    symbols only — a third of an exponentiation each at 128-bit primes,
    less at larger ones — and exactly two exponentiations are paid per
    signature, for the roots of the salt that passed.  The message is
    hashed once; each salt forks that state.
    """
    p, q, n = key.p, key.q, key.public.n
    roots_of = _roots_step(key)
    midstate = digest_state(message)
    for salt in range(_MAX_SALT):
        u = _salted_from(midstate, salt, n)
        roots = roots_of(u)
        if roots is None:
            continue
        root_p, root_q = roots
        # CRT combine: s ≡ root_p (mod p), s ≡ root_q (mod q).
        s = (root_q + q * ((root_p - root_q) * key.q_inv_p % p)) % n
        return RabinSignature(salt=salt, root=s)
    raise CryptoError("could not find a quadratic-residue salt (astronomically unlikely)")


def rabin_verify(public: RabinPublicKey, message: bytes, signature: RabinSignature) -> bool:
    """Verify with one modular squaring.  A salt or root outside its wire
    range is a bad signature, not an error."""
    if not (0 <= signature.salt < _MAX_SALT and 0 < signature.root < public.n):
        return False
    u = _salted_value(message, signature.salt, public.n)
    return (signature.root * signature.root) % public.n == u

"""Deterministic prime generation for the Rabin and threshold schemes.

Miller-Rabin with a fixed witness schedule derived from the caller's RNG
stream keeps key generation reproducible from the simulation seed.  The
witness exponentiation runs in libgmp when it loads; the draws and the
verdicts are the same either way.
"""

from __future__ import annotations

from repro.crypto import gmp

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]


def _witness_power(n: int, d: int):
    """``a -> pow(a, d, n)`` for witnesses ``a < n``."""
    lib = gmp.library()
    if lib is None:
        return lambda a: pow(a, d, n)
    registers = gmp.Registers(lib, 4, (n.bit_length() + 7) // 8)
    registers.load(1, d)
    registers.load(2, n)

    def power(a: int) -> int:
        registers.load(0, a)
        registers.powm(3, 0, 1, 2)
        return registers.read(3)

    return power


def is_probable_prime(n: int, rng, rounds: int = 24) -> bool:
    """Miller-Rabin primality test with ``rounds`` random witnesses."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    power = _witness_power(n, d)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = power(a)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng, congruence: tuple[int, int] | None = None) -> int:
    """Draw a random ``bits``-bit prime, optionally with ``n % mod == rem``.

    ``congruence=(mod, rem)`` supports Rabin's requirement for primes that
    are 3 mod 4 (square roots computable as ``u**((p+1)/4)``).
    """
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if congruence is not None:
            mod, rem = congruence
            candidate += (rem - candidate) % mod
            if candidate.bit_length() != bits:
                continue
        if is_probable_prime(candidate, rng):
            return candidate

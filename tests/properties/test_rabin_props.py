"""Property tests: the signer's Legendre/Jacobi symbol against Euler's
criterion (the exponentiation it replaced) and the symbol's own laws, and
the libgmp binding's symbol, roots and modular power against the
pure-Python ones."""

from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.crypto import gmp
from repro.crypto.primes import random_prime
from repro.crypto.rabin import (
    RabinKeyPair,
    RabinPublicKey,
    _jacobi,
    _NativeRoots,
    _PythonRoots,
)
from repro.sim.rng import RngStreams

_rng = RngStreams(41).stream("jacobi-props")
# The signer's kind of prime (3 mod 4) at every size it meets, plus the
# smallest ones, where a = 0, 1, p - 1 are most of the residues.
PRIMES = [3, 7, 11] + [
    random_prime(bits, _rng, congruence=(4, 3))
    for bits in (16, 32, 64, 128, 256)
    for _ in range(3)
]


@st.composite
def prime_and_argument(draw):
    p = draw(st.sampled_from(PRIMES))
    a = draw(
        st.one_of(
            st.integers(min_value=0, max_value=4 * p),  # includes a > p
            st.sampled_from([0, 1, p - 1, p, p + 1, 2 * p, 3 * p]),
            st.integers(min_value=0, max_value=1 << 128),  # an MD5 value
        )
    )
    return p, a


@given(prime_and_argument())
@settings(max_examples=400)
def test_symbol_is_eulers_criterion_for_primes(case):
    p, a = case
    euler = pow(a % p, (p - 1) // 2, p)
    assert _jacobi(a, p) == {1: 1, p - 1: -1, 0: 0}[euler]


odd_composites = st.builds(
    lambda x, y: (2 * x + 1) * (2 * y + 1),
    st.integers(min_value=1, max_value=1 << 64),
    st.integers(min_value=1, max_value=1 << 64),
)
arguments = st.integers(min_value=0, max_value=1 << 130)


@given(n=odd_composites, a=arguments, b=arguments)
@settings(max_examples=300)
def test_symbol_is_multiplicative_for_composite_moduli(n, a, b):
    assert _jacobi(a * b, n) == _jacobi(a, n) * _jacobi(b, n)


@given(n=odd_composites, a=arguments, k=st.integers(min_value=0, max_value=40))
@settings(max_examples=300)
def test_symbol_is_zero_iff_not_coprime(n, a, k):
    # Small odd multipliers make shared factors likely enough to be drawn.
    a *= 2 * k + 1
    assert (_jacobi(a, n) == 0) == (gcd(a, n) > 1)
    assert _jacobi(a + n, n) == _jacobi(a, n)


native = pytest.mark.skipif(gmp.library() is None, reason="libgmp does not load here")


@native
@given(prime_and_argument())
@settings(max_examples=400)
def test_native_symbol_and_power_equal_python(case):
    p, a = case
    # Wide enough for every argument the strategy draws (up to 2**128).
    registers = gmp.Registers(gmp.library(), 4, 17 + p.bit_length() // 8)
    registers.load(0, a)
    registers.load(1, p)
    assert registers.jacobi(0, 1) == _jacobi(a, p)
    for exponent in ((p + 1) // 4, (p - 1) // 2, 0, 1, a):
        registers.load(2, exponent)
        registers.powm(3, 0, 2, 1)
        assert registers.read(3) == pow(a, exponent, p)


@native
@given(prime_and_argument(), st.sampled_from(PRIMES))
@settings(max_examples=400)
def test_native_roots_equal_python(case, q):
    p, a = case
    assume(q != p)
    key = RabinKeyPair(public=RabinPublicKey(p * q), p=p, q=q)
    u = a % key.public.n  # what the signer hands the step
    assert _NativeRoots(gmp.library(), key)(u) == _PythonRoots(key)(u)

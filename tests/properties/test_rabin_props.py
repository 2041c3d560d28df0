"""Property tests: the signer's Legendre/Jacobi symbol against Euler's
criterion (the exponentiation it replaced) and the symbol's own laws."""

from math import gcd

from hypothesis import given, settings, strategies as st

from repro.crypto.primes import random_prime
from repro.crypto.rabin import _jacobi
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

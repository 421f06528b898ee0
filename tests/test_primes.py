import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latsurj.primes import TRIAL_DIVISION_LIMIT, _trial_primes, factorize, is_probable_prime


def _naive_factorization(n):
    """Trial division by every integer up to sqrt(|n|)."""
    n, out, d = abs(n), Counter(), 2
    while d * d <= n:
        while n % d == 0:
            out[d] += 1
            n //= d
        d += 1
    if n > 1:
        out[n] += 1
    return dict(out)


def _primes_near(start, step, count):
    out, q = [], start
    while len(out) < count:
        if is_probable_prime(q):
            out.append(q)
        q += step
    return out


LIMIT = TRIAL_DIVISION_LIMIT
# trial primes, among them the largest, and primes just past the limit, which
# rho splits off quickly; their squares pass the 10^12 cofactor boundary
SMALL = [2, 3, 5, 7, 97, 65537] + _primes_near(LIMIT, -1, 3)
MEDIUM = _primes_near(LIMIT, 1, 3)
# at most one factor of these sizes, so rho only has to split off the others
BIG = _primes_near(LIMIT**2, -1, 1) + _primes_near(LIMIT**2, 1, 1) + [
    2**31 - 1,
    2**61 - 1,
    _primes_near(2**63, 1, 1)[0],
    _primes_near(2**64, 1, 1)[0],
    2**89 - 1,
]


def test_trial_primes_match_naive_primality():
    primes = _trial_primes()
    assert primes.dtype == np.int64 and len(primes) == 78498 and primes[-1] == SMALL[-3]
    assert primes[:168].tolist() == [q for q in range(1000) if _naive_factorization(q) == {q: 1}]


@given(st.integers(-(10**9), 10**9).filter(bool))
@example(1)
@example(-1)
@example(LIMIT)
@example(-(LIMIT**2 - 1))
@settings(max_examples=200, deadline=None)
def test_factorize_matches_naive_oracle(n):
    assert factorize(n) == _naive_factorization(n)


@given(
    st.lists(st.tuples(st.sampled_from(SMALL), st.integers(1, 5)), max_size=4),
    st.lists(st.sampled_from(MEDIUM), max_size=2),
    st.lists(st.sampled_from(BIG), max_size=1),
    st.sampled_from([1, -1]),
)
@example([], [MEDIUM[0], MEDIUM[0]], [], 1)  # 1000003^2, the first composite cofactor past 10^12
@example([(SMALL[-3], 1)], [], [BIG[0]], -1)  # the largest trial prime, the largest prime below 10^12
@example([], [], [BIG[1]], 1)  # the smallest prime past 10^12
@example([(2, 5)], [], [2**61 - 1], 1)  # past 2^63
@example([(3, 2)], [MEDIUM[1]], [BIG[5]], -1)  # past 2^64
@settings(max_examples=120, deadline=None)
def test_factorize_products_of_known_primes(small, medium, big, sign):
    expected = Counter()
    for q, k in small:
        expected[q] += k
    expected.update(medium + big)
    n = sign * math.prod(q**k for q, k in expected.items())
    assert factorize(n) == dict(expected)
    if not medium:
        # one pass of trial division must find every small prime: what is left is prime
        assert factorize(n, rho_budget=0) == dict(expected)


def test_factorize_prime_powers():
    for q in SMALL + MEDIUM + [2**31 - 1]:
        for k in (1, 2, 3, 7):
            assert factorize(q**k) == {q: k}
            assert factorize(-(q**k)) == {q: k}
    with pytest.raises(ValueError):
        factorize(0)

import math
from fractions import Fraction

import pytest

from latsurj.predictions import (
    Prediction,
    corank_prediction,
    trivial_cokernel_all_primes,
    trivial_cokernel_prediction,
)
from latsurj.predictions import _zeta


def corank_oracle(q, k, terms=300):
    """Exact rational partial product; the omitted tail shrinks the value
    by a factor between 1 and prod_{i>terms}(1-q^-i) > 1 - 2*q^-terms."""
    v = Fraction(1, q ** (k * k))
    for i in range(1, k + 1):
        v /= 1 - Fraction(1, q**i)
    for i in range(k + 1, terms):
        v *= 1 - Fraction(1, q**i)
    return v


def finite_prime_oracle(primes, u, terms=300):
    v = Fraction(1)
    for p in primes:
        for k in range(1, terms):
            v *= 1 - Fraction(1, p ** (k + u))
    return v


def test_corank_prediction_values():
    # frozen from the exact rational oracle
    assert corank_prediction(2, 0).value == pytest.approx(0.2887880950866024, abs=1e-11)
    assert corank_prediction(2, 1).value == pytest.approx(0.5775761901732048, abs=1e-11)
    assert corank_prediction(2, 2).value == pytest.approx(0.1283502644829344, abs=1e-11)
    assert corank_prediction(3, 1).value == pytest.approx(0.4200945584459617, abs=1e-11)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_corank_prediction_matches_rational_oracle(q, k):
    got = corank_prediction(q, k)
    want = float(corank_oracle(q, k))
    assert got.value == pytest.approx(want, abs=max(1e-12, 10 * got.truncation_bound))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_corank_distribution_sums_to_one(q):
    total = sum(corank_prediction(q, k).value for k in range(41))
    assert abs(total - 1) <= 1e-9


@pytest.mark.parametrize("q", [-4, 0, 1, 6, 10, 12, 36, 100, 2**61 + 1, (2**31 - 1) * (2**61 - 1)])
def test_corank_prediction_rejects_orders_that_are_not_prime_powers(q):
    with pytest.raises(ValueError, match="q must be a prime power >= 2"):
        corank_prediction(q, 0)


@pytest.mark.parametrize("q", [2, 4, 8, 9, 27, 3**20, 4096, 2**61 - 1, (2**61 - 1) ** 2])
def test_corank_prediction_accepts_prime_powers(q):
    assert 0 < corank_prediction(q, 0).value <= 1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_corank_prediction_decreasing_from_one(q):
    values = [corank_prediction(q, k).value for k in range(1, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_trivial_prediction_examples():
    assert trivial_cokernel_prediction([], 0).value == 1.0
    assert trivial_cokernel_prediction([2], 0).value == pytest.approx(0.288788, abs=1e-5)
    assert trivial_cokernel_prediction([2], 1).value == pytest.approx(0.577576, abs=1e-5)


def test_trivial_prediction_matches_rational_oracle():
    for primes, u in [((2,), 0), ((2, 3), 1), ((2, 3, 5), 2), ((7,), 0)]:
        got = trivial_cokernel_prediction(primes, u)
        want = float(finite_prime_oracle(primes, u))
        assert got.value == pytest.approx(want, abs=1e-11)


def test_trivial_prediction_monotone_in_u_and_primes():
    for p_set in [(2,), (2, 3), (2, 3, 5)]:
        vals = [trivial_cokernel_prediction(p_set, u).value for u in range(5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    # enlarging the prime set shrinks the probability
    for u in range(3):
        a = trivial_cokernel_prediction((2,), u).value
        b = trivial_cokernel_prediction((2, 3), u).value
        c = trivial_cokernel_prediction((2, 3, 5, 7, 11), u).value
        assert a > b > c


def test_trivial_prediction_rejects_bad_primes():
    with pytest.raises(ValueError):
        trivial_cokernel_prediction([4], 1)


def test_zeta_against_known_values():
    z2, err2 = _zeta(2)
    assert abs(z2 - math.pi**2 / 6) <= max(err2, 1e-13)
    z4, err4 = _zeta(4)
    assert abs(z4 - math.pi**4 / 90) <= max(err4, 1e-13)
    z3, _ = _zeta(3)
    assert z3 == pytest.approx(1.2020569031595943, abs=1e-12)


def test_all_primes_values():
    # u = 2: prod_{j>=3} zeta(j)^{-1}
    got = trivial_cokernel_all_primes(2)
    assert got.value == pytest.approx(0.7167916604535227, abs=1e-9)
    assert trivial_cokernel_all_primes(1).value == pytest.approx(0.4357570767726456, abs=1e-9)
    assert trivial_cokernel_all_primes(0).value == 0.0
    assert trivial_cokernel_all_primes(20).value == pytest.approx(0.9999990461825857, abs=1e-9)


def test_all_primes_tends_to_one():
    vals = [trivial_cokernel_all_primes(u).value for u in range(1, 12)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.999


def test_all_primes_consistent_with_growing_prime_sets():
    # finite-P products converge to the all-primes value from above
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    full = trivial_cokernel_all_primes(3).value
    partial = trivial_cokernel_prediction(primes, 3).value
    assert partial > full
    assert partial - full < 1e-3


def test_prediction_invariants():
    with pytest.raises(ValueError):
        Prediction(1.5, 0.0, 1)
    with pytest.raises(ValueError):
        Prediction(0.5, -1.0, 1)
    p = corank_prediction(2, 40)
    assert 0 <= p.value <= 1

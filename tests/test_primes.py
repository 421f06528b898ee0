import pytest

from latsurj.fq import MAX_Q
from latsurj.primes import factorize

from oracles import naive_factorization


def test_factorize_matches_naive_oracle():
    # every field order the tables take, and a few beyond
    for n in range(2, MAX_Q + 50):
        assert factorize(n) == naive_factorization(n)


def test_factorize_prime_powers():
    for q in (2, 3, 5, 7, 61, 4093):
        k = 1
        while q**k <= MAX_Q:
            assert factorize(q**k) == {q: k}
            k += 1
    for n in (1, 0, -1, -4):
        with pytest.raises(ValueError):
            factorize(n)

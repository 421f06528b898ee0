"""Primality testing, CRT primes, and factoring of field orders.

The CRT primes below 2^30 come from the Miller-Rabin test, which is
deterministic at that size.  :func:`factorize` is plain trial division,
for the field orders q <= :data:`latsurj.fq.MAX_Q` (at most 64
divisions); nothing else factors.  The certifier, the exposure
simulation and :func:`latsurj.ensembles.alpha_min` split composite
moduli by gcds instead (:func:`latsurj.modp.parts`).
"""

from __future__ import annotations

import threading
from typing import Dict, List

# Deterministic Miller-Rabin witness set: the first 13 primes decide
# primality for all n < 3.3 * 10^24; beyond that the test is probabilistic
# with error below 4^-13 per composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test with a fixed witness set."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> Dict[int, int]:
    """{prime: exponent} of n >= 2 by trial division, √n steps at most."""
    if n < 2:
        raise ValueError(f"cannot factor {n}: need n >= 2")
    factors: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


_CRT_PRIME_CACHE: List[int] = []
_CRT_PRIME_LOCK = threading.Lock()


def crt_primes(count: int) -> List[int]:
    """The first `count` primes below 2^30, descending.

    Used as CRT moduli; they stay below 2^30 so int64 products of two
    residues cannot overflow during vectorized elimination.  The cache is
    locked: concurrent trial workers extend it through determinant calls.
    """
    if len(_CRT_PRIME_CACHE) < count:
        with _CRT_PRIME_LOCK:
            candidate = _CRT_PRIME_CACHE[-1] - 2 if _CRT_PRIME_CACHE else 2**30 - 1
            while len(_CRT_PRIME_CACHE) < count:
                if is_probable_prime(candidate):
                    _CRT_PRIME_CACHE.append(candidate)
                candidate -= 2
    return _CRT_PRIME_CACHE[:count]

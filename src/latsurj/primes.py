"""Primality testing, prime generation, and bounded integer factorization.

The factorizer is deliberately budgeted: trial division up to a fixed limit,
then Brent-style Pollard rho with a bounded iteration count; trial division
is one numpy pass over an int64 array of the primes.  The exposure
simulator, which tracks the primes of a determinant, lets a
:class:`FactorizationError` propagate; the certifier needs no factoring
and no primality test.  The CRT primes
below 2^30 come from the Miller-Rabin test, which is deterministic at that
size.  All routines are deterministic: no randomized seeds enter the rho
cycle.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Dict, List

import numpy as np

TRIAL_DIVISION_LIMIT = 10**6
RHO_ITERATION_BUDGET = 2_000_000


class FactorizationError(Exception):
    """A cofactor resisted the factoring budget."""


@lru_cache(maxsize=1)
def _trial_primes() -> np.ndarray:
    """The primes up to TRIAL_DIVISION_LIMIT, ascending: a read-only int64 sieve."""
    sieve = np.ones(TRIAL_DIVISION_LIMIT + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(TRIAL_DIVISION_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve).astype(np.int64)
    primes.setflags(write=False)
    return primes


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


def _pollard_rho_brent(n: int, c: int, budget: int) -> tuple[int | None, int]:
    """One Brent rho attempt on odd composite n.

    Returns (factor or None, iterations consumed).  Deterministic for a
    given polynomial offset c.
    """
    y, r, q = 2, 1, 1
    g = 1
    used = 0
    x = ys = y
    while g == 1 and used < budget:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        used += r
        k = 0
        while k < r and g == 1:
            ys = y
            step = min(128, r - k)
            for _ in range(step):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            used += step
            g = math.gcd(q, n)
            k += step
        r *= 2
    if g == n:
        # The batched gcd collapsed; replay one step at a time.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    if 1 < g < n:
        return g, used
    return None, used


def factorize(n: int, rho_budget: int = RHO_ITERATION_BUDGET) -> Dict[int, int]:
    """Factor |n| completely or raise FactorizationError.

    Trial division first, then bounded Pollard rho on the surviving
    cofactors.  The rho budget is shared across all cofactors of one call.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    # n mod all trial primes up to sqrt(n) by Horner's rule, in place, over a top limb
    # below 2^62, then 42-bit limbs: a remainder (< 2^20) shifted by one limb stays < 2^63
    primes = _trial_primes()
    primes = primes[: np.searchsorted(primes, math.isqrt(n), side="right")]
    low = -(-max(n.bit_length() - 62, 0) // 42) * 42
    rest = np.remainder(n >> low, primes)
    for shift in range(low - 42, -1, -42):
        rest <<= 42
        rest += (n >> shift) & (2**42 - 1)
        np.remainder(rest, primes, out=rest)
    factors: Dict[int, int] = {}
    for p in primes[rest == 0].tolist():
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1 and n <= TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT:
        # no prime up to min(sqrt(n), the limit) divides n, so n is prime
        factors[n] = factors.get(n, 0) + 1
        return factors

    remaining = rho_budget
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        found = None
        for c in (1, 3, 5, 7, 9, 11):
            if remaining <= 0:
                break
            found, used = _pollard_rho_brent(m, c, remaining)
            remaining -= used
            if found is not None:
                break
        if found is None:
            raise FactorizationError(f"cofactor {m} resisted the factoring budget")
        stack.append(found)
        stack.append(m // found)
    return factors


def prime_divisors(n: int) -> set[int]:
    """Set of prime divisors of |n| (n nonzero)."""
    if n == 0:
        raise ValueError("0 has no prime divisor set")
    if abs(n) == 1:
        return set()
    return set(factorize(n))


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

"""Closed-form limiting probabilities with controlled truncation error.

Each value comes back as a :class:`Prediction` carrying a proven bound on
the omitted tail, so experiment tolerances can be checked honestly.
Infinite products stop once the pending log-tail drops below 1e-14, and
zeta values come from direct Dirichlet summation with an Euler-Maclaurin
tail bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from . import primes as _primes

_LOG_TAIL_CUTOFF = 1e-14


@dataclass(frozen=True)
class Prediction:
    """A probability in [0,1] plus a bound on the truncated tail."""

    value: float
    truncation_bound: float
    terms_used: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("prediction out of [0, 1]")
        if self.truncation_bound < 0:
            raise ValueError("tail bound must be nonnegative")


def _product_tail_bound(p: int, k: int, u: int) -> float:
    """Upper bound on -log of the omitted factors prod_{j>k}(1 - p^-(j+u)).

    Uses -log(1-x) <= x/(1-x) and a geometric sum.
    """
    x_next = p ** (-(k + 1 + u))
    if x_next >= 0.5:
        return math.inf
    geom = x_next * p / (p - 1)
    return geom / (1 - x_next)


def trivial_cokernel_prediction(primes: Sequence[int], u: int) -> Prediction:
    """prod_{p in P} prod_{k>=1} (1 - p^(-k-u)), truncated with tail bound."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    ps = sorted(set(primes))
    for p in ps:
        if not _primes.is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
    value = 1.0
    terms = 0
    tail_log = 0.0
    for p in ps:
        k = 0
        while True:
            k += 1
            value *= 1 - p ** (-(k + u))
            terms += 1
            bound = _product_tail_bound(p, k, u)
            if bound < _LOG_TAIL_CUTOFF:
                tail_log += bound
                break
    # value_true = value * exp(-tail) with 0 <= tail <= tail_log
    bound = value * tail_log * 1.01 + 1e-15
    return Prediction(value, bound, terms)


def _zeta(s: int) -> Tuple[float, float]:
    """(zeta(s), error bound) for integer s >= 2.

    Dirichlet sum to N plus Euler-Maclaurin correction terms through B_6;
    the error is bounded by twice the first omitted term.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    n = 64
    total = sum(k ** (-float(s)) for k in range(1, n))
    total += n ** (1.0 - s) / (s - 1)
    total += 0.5 * n ** (-float(s))
    # Bernoulli terms B_2 = 1/6, B_4 = -1/30, B_6 = 1/42
    rising = float(s)
    term = (1.0 / 6 / 2) * rising * n ** (-s - 1.0)
    total += term
    rising *= (s + 1) * (s + 2)
    term = (-1.0 / 30 / 24) * rising * n ** (-s - 3.0)
    total += term
    rising *= (s + 3) * (s + 4)
    term = (1.0 / 42 / 720) * rising * n ** (-s - 5.0)
    total += term
    rising *= (s + 5) * (s + 6)
    err = abs((1.0 / 30 / 40320) * rising * n ** (-s - 7.0)) * 2
    return total, err


def trivial_cokernel_all_primes(u: int) -> Prediction:
    """prod over all primes of prod_{k>=1}(1 - p^(-k-u)).

    Evaluated through the Euler-product identity as
    prod_{j >= u+1} zeta(j)^(-1).  The product diverges to 0 at u = 0,
    which is reported as an exact zero.
    """
    if u < 0:
        raise ValueError("u must be nonnegative")
    if u == 0:
        return Prediction(0.0, 0.0, 0)
    value = 1.0
    terms = 0
    err_acc = 0.0
    j = u
    while True:
        j += 1
        z, z_err = _zeta(j)
        value /= z
        err_acc += z_err
        terms += 1
        # remaining log-tail: sum_{i>j} log zeta(i) <= sum_{i>j} 2^(1-i) * 1.3
        tail = 1.3 * 2.0 ** (1 - j)
        if tail < _LOG_TAIL_CUTOFF:
            break
    bound = value * (tail + err_acc) * 1.01 + 1e-15
    return Prediction(value, bound, terms)


def _exact_roots(q: int):
    """The integers r with r^k = q for some k in 1..q.bit_length(), q >= 2, by
    Newton's iteration from above, which ends at the floor of the root."""
    for k in range(1, q.bit_length() + 1):
        r = 1 << -(-q.bit_length() // k)
        while (s := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
            r = s
        if r**k == q:
            yield r


@functools.lru_cache
def corank_prediction(q: int, k: int) -> Prediction:
    """Limiting P(corank = k) over F_q for a square balanced matrix:
    q^(-k^2) * prod_{i=1..k} (1-q^-i)^(-1) * prod_{i>k} (1-q^-i).
    """
    if q < 2 or not any(_primes.is_probable_prime(r) for r in _exact_roots(q)):
        raise ValueError("q must be a prime power >= 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    log_value = -(k * k) * math.log(q)
    for i in range(1, k + 1):
        log_value -= math.log(1 - q ** (-i))
    terms = k
    i = k
    while True:
        i += 1
        log_value += math.log1p(-(q ** (-i)))
        terms += 1
        x_next = q ** (-(i + 1))
        tail = (x_next * q / (q - 1)) / (1 - x_next)
        if tail < _LOG_TAIL_CUTOFF:
            break
    if log_value < -700:
        return Prediction(0.0, 1e-300, terms)
    value = math.exp(log_value)
    bound = value * tail * 1.01 + 1e-15
    return Prediction(min(value, 1.0), bound, terms)

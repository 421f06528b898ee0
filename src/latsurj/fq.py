"""Finite-field arithmetic and Fourier-analytic anti-concentration checks.

F_q = p^f is represented on integers 0..q-1 encoding polynomial
coefficient vectors base p over a fixed irreducible (the lexicographically
smallest monic one, so construction is deterministic).  Multiplication
runs on log/antilog tables; the additive structure is digitwise mod p; the
field trace provides the additive characters e_p(tr(x t)).

Probabilities are exact rationals throughout; only the Fourier transform
itself is complex floating point, compared with a 1e-9 slack.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import primes as _primes
from .modp import iter_subspaces, subspace_elements

MAX_Q = 2**12
SLACK = 1e-9
_INT64_MAX = np.iinfo(np.int64).max
_SUMSET_BLOCK = 1 << 16

# -- polynomial helpers over F_p (coefficient lists, low degree first) ---


def _poly_trim(c: List[int]) -> List[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> List[int]:
    """Remainder of a modulo the monic polynomial mod, over F_p."""
    r = [c % p for c in a]
    deg = len(mod) - 1
    while len(r) > deg:
        lead = r.pop()
        off = len(r) - deg
        for i in range(deg):
            r[off + i] = (r[off + i] - lead * mod[i]) % p
    return _poly_trim(r)


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> List[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _poly_mod(prod, mod, p)


def _is_irreducible(coeffs: Sequence[int], p: int, f: int) -> bool:
    """Trial division of a monic degree-f polynomial over F_p by every monic
    polynomial of degree 1..f/2: at most 2 p^(f/2) <= 128 divisors for q <= MAX_Q."""
    for d in range(1, f // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            if not _poly_mod(coeffs, list(lower) + [1], p):
                return False
    return True


def _smallest_irreducible(p: int, f: int) -> List[int]:
    """Lexicographically smallest monic irreducible of degree f over F_p."""
    for lower in itertools.product(range(p), repeat=f):
        coeffs = list(lower) + [1]
        if coeffs[0] == 0 and f > 1:
            continue  # reducible: x divides it
        if _is_irreducible(coeffs, p, f):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# -- the field itself ----------------------------------------------------


def _int_or_array(x):
    """A Python int for a scalar result, the array otherwise."""
    return int(x) if np.ndim(x) == 0 else x


class FieldTable:
    """Explicit F_q = p^f arithmetic with log/antilog tables and trace.

    Elements are integers 0..q-1; the base-p digits of an element are its
    polynomial coefficients, so 0..p-1 are exactly the prime subfield.
    add, mul, pow and trace work elementwise on ints or integer arrays,
    with numpy broadcasting, from tables of O(q) size.
    """

    def __init__(self, p: int, f: int = 1):
        if not _primes.is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        if f < 1:
            raise ValueError("extension degree must be at least 1")
        q = p**f
        if q > MAX_Q:
            raise ValueError(f"q = {q} exceeds the table limit {MAX_Q}")
        self.p = p
        self.f = f
        self.q = q
        self.modulus_poly: Tuple[int, ...] = (
            tuple(_smallest_irreducible(p, f)) if f > 1 else (0, 1)
        )
        self._place = p ** np.arange(f, dtype=np.int64)
        self._digits = np.arange(q, dtype=np.int64)[:, None] // self._place % p
        self._build_tables()
        self._build_trace()

    def _mul_poly(self, a: int, b: int) -> int:
        if self.f == 1:
            return a * b % self.p
        prod = _poly_mulmod(self._digits[a].tolist(), self._digits[b].tolist(), self.modulus_poly, self.p)
        return sum(c * self.p**i for i, c in enumerate(prod))

    def _build_tables(self) -> None:
        q = self.q
        # find a multiplicative generator by exhausting each candidate's cycle
        for g in range(2, q) if q > 2 else [1]:
            order = 1
            x = g
            while x != 1:
                x = self._mul_poly(x, g)
                order += 1
                if order > q - 1:
                    break
            if order == q - 1:
                break
        else:
            g = 1  # q == 2
        self.generator = g
        exp = np.ones(2 * (q - 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._mul_poly(x, g)
        exp[q - 1 :] = exp[: q - 1]
        self._exp = exp
        self._log = log

    def _build_trace(self) -> None:
        """Tabulate tr(x) = x + x^p + ... + x^(p^(f-1)) for every element."""
        acc = frob = np.arange(self.q)
        for _ in range(self.f - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        digits = np.broadcast_to(self._digits[acc], (self.q, self.f))
        outside = np.flatnonzero(digits[:, 1:].any(axis=1))
        if outside.size:
            raise RuntimeError(f"trace of {outside[0]} left the prime subfield")
        self._trace = digits[:, 0].copy()

    # group/field operations

    def elements(self) -> range:
        return range(self.q)

    def add(self, a, b):
        """a + b: digitwise mod p."""
        return _int_or_array((self._digits[a] + self._digits[b]) % self.p @ self._place)

    def mul(self, a, b):
        """a * b: through the log table, with 0 absorbing."""
        a, b = np.asarray(a), np.asarray(b)
        prod = self._exp[self._log[a] + self._log[b]]
        return _int_or_array(np.where((a == 0) | (b == 0), 0, prod))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)])

    def pow(self, a, e: int):
        a = np.asarray(a)
        power = self._exp[self._log[a] * e % (self.q - 1)]
        return _int_or_array(np.where(a == 0, int(e == 0), power))

    def trace(self, x):
        """Field trace F_q -> F_p (identity when f = 1)."""
        return _int_or_array(self._trace[x])

    def __repr__(self) -> str:
        return f"FieldTable(p={self.p}, f={self.f})"


@lru_cache(maxsize=32)
def field(p: int, f: int = 1) -> FieldTable:
    """Cached field constructor."""
    return FieldTable(p, f)


def field_for_order(q: int) -> FieldTable:
    """FieldTable for a prime power 2 <= q <= MAX_Q."""
    if not 2 <= q <= MAX_Q:
        raise ValueError(f"field order q = {q} must lie in [2, {MAX_Q}]")
    fac = _primes.factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, f), = fac.items()
    return field(p, f)


# -- distributions over F_q ----------------------------------------------


@dataclass(frozen=True)
class FqDistribution:
    """Probability law on F_q with exact rational weights."""

    field: FieldTable
    weights: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.field.q:
            raise ValueError("need one weight per field element")
        ws = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if any(w < 0 for w in ws) or sum(ws) != 1:
            raise ValueError("weights must be a probability vector")

    @classmethod
    def uniform(cls, fld: FieldTable) -> "FqDistribution":
        return cls(fld, tuple(Fraction(1, fld.q) for _ in range(fld.q)))

    @classmethod
    def from_pairs(cls, fld: FieldTable, pairs: Iterable[Tuple[int, Fraction]]) -> "FqDistribution":
        w = [Fraction(0)] * fld.q
        for x, wt in pairs:
            w[x] += Fraction(wt)
        return cls(fld, tuple(w))


def mu_hat(mu: FqDistribution, x: int) -> complex:
    """Fourier transform at x: sum_t mu(t) e_p(tr(x t))."""
    fld = mu.field
    tau = 2j * math.pi / fld.p
    total = 0j
    for t, w in enumerate(mu.weights):
        if w:
            total += float(w) * cmath.exp(tau * fld.trace(fld.mul(x, t)))
    return total


def mu_hat_all(mu: FqDistribution) -> np.ndarray:
    """mu_hat at every field element, as one complex vector."""
    fld = mu.field
    roots = np.exp(2j * np.pi * np.arange(fld.p) / fld.p)
    xs = np.arange(fld.q)
    total = np.zeros(fld.q, dtype=complex)
    for t, w in enumerate(mu.weights):
        if w:
            total += float(w) * roots[fld.trace(fld.mul(xs, t))]
    return total


def spec_set(mu: FqDistribution, eps: float) -> FrozenSet[int]:
    """Elements where |mu_hat| >= 1 - eps (with numeric slack toward
    inclusion, so downstream non-containment checks only get stricter)."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    mags = np.abs(mu_hat_all(mu))
    return frozenset(np.flatnonzero(mags >= 1 - eps - SLACK).tolist())


# -- exact dot-product laws ------------------------------------------------


def _check_coefficients(fld: FieldTable, w: Sequence[int]) -> None:
    if any(not 0 <= wl < fld.q for wl in w):
        raise ValueError(f"coefficients must be field elements 0..{fld.q - 1}")


def _numerators(mu: FqDistribution) -> Tuple[int, np.ndarray]:
    """(den, row): the weights of mu as integers over their lcm denominator,
    int64 unless den could pass it."""
    den = math.lcm(*(w.denominator for w in mu.weights))
    row = [int(w * den) for w in mu.weights]
    return den, np.array(row, dtype=np.int64 if den <= _INT64_MAX else object)


def _dot_law_numerators(fld: FieldTable, numerators: np.ndarray, w: Sequence[int]) -> np.ndarray:
    """Per row of numerators (a law over a common denominator den), the law of
    sum_l xi_l * w_l as integer numerators over den^len(w), by convolution.
    The numerators are Python ints where den^len(w) could pass int64."""
    if int(numerators.sum(axis=1).max()) ** len(w) > _INT64_MAX:
        numerators = numerators.astype(object)
    xs = np.arange(fld.q)
    law = np.zeros((numerators.shape[0], fld.q), dtype=numerators.dtype)
    law[:, 0] = 1
    support = np.flatnonzero(numerators.astype(bool).any(axis=0))
    for wl in w:
        nxt = np.zeros_like(law)
        for t in support:
            # s -> s + wl*t permutes F_q, so no target repeats
            nxt[:, fld.add(xs, fld.mul(wl, t))] += law * numerators[:, t : t + 1]
        law = nxt
    return law


def exact_dot_distribution(mu: FqDistribution, w: Sequence[int]) -> Tuple[Fraction, ...]:
    """Exact law of sum_l xi_l * w_l by iterated convolution."""
    _check_coefficients(mu.field, w)
    den, row = _numerators(mu)
    law = _dot_law_numerators(mu.field, row[None, :], w)[0]
    scale = den ** len(w)
    return tuple(Fraction(int(c), scale) for c in law)


# -- balance over additive subgroups --------------------------------------

_SUBGROUP_F_LIMIT = 3


def additive_subgroups(fld: FieldTable, min_dim: int = 0, max_dim: Optional[int] = None) -> List[FrozenSet[int]]:
    """All additive subgroups (F_p-subspaces) of F_q with the given
    dimension range.  Limited to f <= 3, where enumeration stays cheap."""
    if fld.f > _SUBGROUP_F_LIMIT:
        raise ValueError(f"subgroup enumeration is limited to f <= {_SUBGROUP_F_LIMIT}")
    hi = fld.f if max_dim is None else max_dim
    out: List[FrozenSet[int]] = []
    for basis in iter_subspaces(fld.p, fld.f, dims=range(min_dim, hi + 1)):
        elements = subspace_elements(fld.p, basis, fld.f)
        out.append(frozenset((np.array(elements) @ fld._place).tolist()))
    return out


def _alpha_numerators(fld: FieldTable, den: int, numerators: np.ndarray) -> np.ndarray:
    """alpha * den for each distribution row, via proper-subgroup cosets.

    The lowest nonzero digits of the elements of H lie at the pivots of
    its reduced row echelon basis, and subtracting basis rows clears an
    element's digits there and leaves the others: the elements with zero
    digits at the pivots hold one shift of each coset of H.
    """
    best = np.zeros(numerators.shape[0], dtype=numerators.dtype)
    for sub in additive_subgroups(fld, max_dim=fld.f - 1):
        h = np.array(sorted(sub))
        pivots = np.unique((fld._digits[h] != 0).argmax(axis=1)[h != 0])
        shifts = np.flatnonzero(~fld._digits[:, pivots].any(axis=1))
        cosets = fld.add(shifts[:, None], h)  # row t is the coset shifts[t] + H
        best = np.maximum(best, numerators[:, cosets].sum(axis=2).max(axis=1))
    return den - best


def balance_alpha(mu: FqDistribution) -> Fraction:
    """1 - max mass of any coset of a proper additive subgroup."""
    den, row = _numerators(mu)
    return Fraction(int(_alpha_numerators(mu.field, den, row[None, :])[0]), den)


# -- Littlewood-Offord bound check ----------------------------------------


@dataclass(frozen=True)
class LoBoundResult:
    lhs: float
    rhs: float
    holds: bool
    alpha: Fraction
    probability: Fraction
    vacuous: bool


def lo_bound_check(mu: FqDistribution, w: Sequence[int], r: int) -> LoBoundResult:
    """Check |P(X.w = r) - 1/q| <= 2/sqrt(alpha m) exactly.

    m counts the nonzero coefficients of w and alpha is the subgroup-aware
    balance of mu.  alpha = 0 makes the bound vacuous, which is reported
    rather than raised.
    """
    fld = mu.field
    m = sum(1 for x in w if x != 0)
    if m == 0:
        raise ValueError("w must have at least one nonzero coefficient")
    if not 0 <= r < fld.q:
        raise ValueError(f"r must be a field element 0..{fld.q - 1}")
    alpha = balance_alpha(mu)
    prob = exact_dot_distribution(mu, w)[r]
    lhs = abs(float(prob - Fraction(1, fld.q)))
    if alpha == 0:
        return LoBoundResult(lhs, math.inf, True, alpha, prob, True)
    rhs = 2.0 / math.sqrt(float(alpha) * m)
    return LoBoundResult(lhs, rhs, lhs <= rhs + SLACK, alpha, prob, False)


# -- level sets -------------------------------------------------------------


def _psi_values(mu: FqDistribution) -> np.ndarray:
    return 1.0 - np.abs(mu_hat_all(mu)) ** 2


def _level_function(mu: FqDistribution, w: Sequence[int]) -> np.ndarray:
    fld = mu.field
    _check_coefficients(fld, w)
    psi = _psi_values(mu)
    xs = np.arange(fld.q)
    f = np.zeros(fld.q)
    for wl in w:
        if wl:
            f += psi[fld.mul(wl, xs)]
    return f


def _sumset(fld: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted elements of a + b, adding a block of rows of a at a time
    so the sum table stays within _SUMSET_BLOCK entries."""
    hit = np.zeros(fld.q, dtype=bool)
    step = max(1, _SUMSET_BLOCK // max(b.size, 1))
    for i in range(0, a.size, step):
        hit[fld.add(a[i : i + step, None], b)] = True
    return np.flatnonzero(hit)


def _nesting_by_fold(fld: FieldTable, f: np.ndarray, v: float, max_k: int) -> List[bool]:
    """For k = 1..max_k, whether the k-fold sumset of T(v) = {t : f(t) <= v}
    lies in T(k^2 v); each sumset extends the one before by T(v)."""
    base = np.flatnonzero(f <= v + SLACK)
    acc = base
    holds = []
    for k in range(1, max_k + 1):
        if k > 1:
            acc = _sumset(fld, acc, base)
        holds.append(bool((f[acc] <= k * k * v + SLACK).all()))
    return holds


def check_level_set_nesting(mu: FqDistribution, w: Sequence[int], v: float, k: int) -> bool:
    """Exhaustively verify T(v) + ... + T(v) (k-fold) lies inside T(k^2 v),
    where T(v) = {t : sum_l psi(w_l t) <= v} and psi = 1 - |mu_hat|^2."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if math.isnan(v):
        raise ValueError(f"level v must be a number, got {v}")
    return _nesting_by_fold(mu.field, _level_function(mu, w), v, k)[-1]


# -- spectrum vs subgroups ----------------------------------------------------


@dataclass(frozen=True)
class SubgroupCheckResult:
    alpha: Fraction
    hypothesis_ok: bool
    holds: Optional[bool]
    witness: Optional[FrozenSet[int]]


def spectrum_subgroup_check(mu: FqDistribution) -> SubgroupCheckResult:
    """Confirm Spec_{1-alpha/2} contains no nontrivial additive subgroup.

    A distribution with alpha = 0 violates the balance hypothesis, which
    is reported as such (holds = None) rather than as a counterexample.
    """
    alpha = balance_alpha(mu)
    if alpha == 0:
        return SubgroupCheckResult(alpha, False, None, None)
    spectrum = spec_set(mu, float(alpha) / 2)
    for sub in additive_subgroups(mu.field, min_dim=1):
        if sub <= spectrum:
            return SubgroupCheckResult(alpha, True, False, sub)
    return SubgroupCheckResult(alpha, True, True, None)


# -- exhaustive sweeps ---------------------------------------------------------


def _dedup_compositions(total: int, parts: int):
    """Compositions of `total` into `parts` nonnegative parts whose overall
    gcd with `total` is 1 (so each distribution appears at one denominator)."""
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):  # stars and bars
        edges = (-1,) + bars + (slots,)
        c = tuple(b - a - 1 for a, b in zip(edges, edges[1:]))
        if math.gcd(total, *c) == 1:
            yield c


def _weight_batches(q: int, max_den: int):
    """Yield (denominator, numerator matrix) batches of distributions."""
    for d in range(1, max_den + 1):
        block = np.array(list(_dedup_compositions(d, q)), dtype=np.int64)
        if block.size:
            yield d, block


def generator_multisets(fld: FieldTable, max_m: int) -> List[Tuple[int, ...]]:
    """Coefficient multisets over the fixed generator set {1, g}."""
    gens = sorted({1, fld.generator} - {0})
    out: List[Tuple[int, ...]] = []
    for m in range(1, max_m + 1):
        for combo in itertools.combinations_with_replacement(gens, m):
            out.append(combo)
    return out


@dataclass
class SweepReport:
    cases: int
    violations: List[dict]


def lo_exhaustive_grid(q: int, max_m: int = 6, max_den: int = 8) -> SweepReport:
    """Exhaustive Littlewood-Offord grid for one field order.

    Covers every distribution with weight denominator <= max_den, every
    coefficient multiset over {1, generator} with at most max_m entries,
    and every target r.  All arithmetic is exact integer work: the law is
    convolved as numerators over den^m, and the bound is compared via
    (q*law - den^m)^2 * alpha_num * m <= 4 q^2 den^(2m) * den.
    """
    fld = field_for_order(q)
    multisets = generator_multisets(fld, max_m)
    cases = 0
    violations: List[dict] = []
    for den, numerators in _weight_batches(q, max_den):
        count = numerators.shape[0]
        alpha_num = _alpha_numerators(fld, den, numerators)
        for w in multisets:
            m = len(w)
            law = _dot_law_numerators(fld, numerators, w)
            dm = den**m
            dev = q * law - dm
            lhs = dev.astype(object) ** 2 * alpha_num[:, None].astype(object) * m
            rhs = 4 * q * q * dm * dm * den
            bad = lhs > rhs
            cases += count * q
            if bad.any():
                for i, r in zip(*np.nonzero(bad)):
                    violations.append(
                        {
                            "q": q,
                            "den": den,
                            "weights": numerators[i].tolist(),
                            "w": list(w),
                            "r": int(r),
                        }
                    )
    return SweepReport(cases, violations)


def kneser_exhaustive(n: int) -> SweepReport:
    """Check |A+B| + |Sym(A+B)| >= |A| + |B| for all nonempty A,B in Z/n.

    Subsets are bitmasks; for each A the sumsets over all B come from a
    lowest-set-bit dynamic program on rotated copies of A.
    """
    size = 1 << n
    full = size - 1
    masks = np.arange(size, dtype=np.int64)
    pop = np.zeros(size, dtype=np.int64)
    for j in range(n):
        pop += (masks >> j) & 1

    def rot_all(arr: np.ndarray, b: int) -> np.ndarray:
        if b == 0:
            return arr.copy()
        return ((arr << b) | (arr >> (n - b))) & full

    sym = np.zeros(size, dtype=np.int64)
    for h in range(n):
        sym += rot_all(masks, h) == masks

    cases = 0
    violations: List[dict] = []
    x = np.zeros(size, dtype=np.int64)
    for a_mask in range(1, size):
        rot_a = [(((a_mask << b) | (a_mask >> (n - b))) & full) if b else a_mask for b in range(n)]
        for j in range(n - 1, -1, -1):
            idx = np.arange(1 << j, size, 1 << (j + 1))
            x[idx] = x[idx ^ (1 << j)] | rot_a[j]
        lhs = pop[x[1:]] + sym[x[1:]]
        rhs = pop[a_mask] + pop[masks[1:]]
        bad = np.nonzero(lhs < rhs)[0]
        cases += size - 1
        for b_idx in bad:
            violations.append({"n": n, "A": int(a_mask), "B": int(b_idx + 1)})
    return SweepReport(cases, violations)


# fixed parameters of cosine_sweep and level_set_sweep
COSINE_MAX_K = 6
NESTING_Q = 5
NESTING_MAX_K = 4
NESTING_MAX_DEN = 8


def cosine_sweep(instances: int = 100_000, seed: int = 0) -> SweepReport:
    """Random sweep of the cosine inequality, vectorized per tuple length:
    `instances` angle tuples split evenly over k = 1..COSINE_MAX_K."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    per_k = instances // COSINE_MAX_K
    cases = 0
    violations: List[dict] = []
    for k in range(1, COSINE_MAX_K + 1):
        count = per_k if k < COSINE_MAX_K else instances - per_k * (COSINE_MAX_K - 1)
        betas = rng.uniform(-math.pi, math.pi, size=(count, k))
        lhs = np.cos(betas.sum(axis=1))
        rhs = k * np.cos(betas).sum(axis=1) - k * k + 1
        bad = np.nonzero(lhs < rhs - SLACK)[0]
        cases += count
        for i in bad:
            violations.append({"k": k, "betas": betas[i].tolist()})
    return SweepReport(cases, violations)


def level_set_sweep(pairs: int = 2000, seed: int = 0) -> SweepReport:
    """Random (mu, w) pairs over F_NESTING_Q, weight numerators in
    0..NESTING_MAX_DEN, crossed with the levels v = 0.25 i, i < 13, and fold
    counts k = 1..NESTING_MAX_K: pairs * 13 * NESTING_MAX_K exhaustive checks."""
    fld = field_for_order(NESTING_Q)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cases = 0
    violations: List[dict] = []
    for _ in range(pairs):
        numer = rng.integers(0, NESTING_MAX_DEN + 1, size=NESTING_Q)
        if numer.sum() == 0:
            numer[0] = 1
        den = int(numer.sum())
        mu = FqDistribution(fld, tuple(Fraction(int(c), den) for c in numer))
        m = int(rng.integers(1, 5))
        w = [int(x) for x in rng.integers(0, NESTING_Q, size=m)]
        f = _level_function(mu, w)
        for v in (0.25 * i for i in range(13)):
            for k, holds in enumerate(_nesting_by_fold(fld, f, v, NESTING_MAX_K), 1):
                cases += 1
                if not holds:
                    violations.append({"q": NESTING_Q, "weights": numer.tolist(), "w": w, "v": v, "k": k})
    return SweepReport(cases, violations)

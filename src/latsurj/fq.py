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
_TABLE_Q_LIMIT = 512

# -- polynomial helpers over F_p (coefficient lists, low degree first) ---


def _poly_trim(c: List[int]) -> List[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> List[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    deg = len(mod) - 1
    while len(prod) > deg:
        lead = prod.pop()
        if lead:
            off = len(prod) - deg
            for i in range(deg):
                prod[off + i] = (prod[off + i] - lead * mod[i]) % p
    return _poly_trim(prod)


def _poly_powmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> List[int]:
    result = [1]
    b = _poly_trim(list(base))
    while e:
        if e & 1:
            result = _poly_mulmod(result, b, mod, p)
        b = _poly_mulmod(b, b, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) >= len(b) and _poly_trim(r):
            if len(r) < len(b):
                break
            coef = r[-1] * inv % p
            off = len(r) - len(b)
            for i in range(len(b)):
                r[off + i] = (r[off + i] - coef * b[i]) % p
            _poly_trim(r)
        a, b = b, r
    return a


def _is_irreducible(coeffs: Sequence[int], p: int, f: int) -> bool:
    """Rabin test for a monic degree-f polynomial over F_p."""
    mod = list(coeffs)
    x = [0, 1]
    xq = _poly_powmod(x, p**f, mod, p)
    diff = _poly_trim([(a - b) % p for a, b in itertools.zip_longest(xq, x, fillvalue=0)])
    if diff:
        return False
    for ell in _primes.prime_divisors(f) if f > 1 else []:
        t = _poly_powmod(x, p ** (f // ell), mod, p)
        diff = _poly_trim([(a - b) % p for a, b in itertools.zip_longest(t, x, fillvalue=0)])
        g = _poly_gcd(mod, diff, p)
        if len(g) - 1 != 0:
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


class FieldTable:
    """Explicit F_q = p^f arithmetic with log/antilog tables and trace.

    Elements are integers 0..q-1; the base-p digits of an element are its
    polynomial coefficients, so 0..p-1 are exactly the prime subfield.
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
        self._build_tables()
        self._trace_table = tuple(self._trace_slow(x) for x in range(q))
        self._add_table: Optional[np.ndarray] = None
        self._mul_np: Optional[np.ndarray] = None

    # digit <-> encoding

    def digits(self, x: int) -> Tuple[int, ...]:
        out = []
        for _ in range(self.f):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def encode(self, digits: Sequence[int]) -> int:
        e = 0
        for d in reversed(digits):
            e = e * self.p + (d % self.p)
        return e

    def _mul_poly(self, a: int, b: int) -> int:
        if self.f == 1:
            return a * b % self.p
        prod = _poly_mulmod(self.digits(a), self.digits(b), list(self.modulus_poly), self.p)
        return self.encode(prod + [0] * (self.f - len(prod)))

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
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._mul_poly(x, g)
        for i in range(q - 1, 2 * (q - 1)):
            exp[i] = exp[i - (q - 1)]
        self._exp = tuple(exp)
        self._log = tuple(log)

    # group/field operations

    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a + b) % self.p
        p = self.p
        e = 0
        mult = 1
        while a or b:
            e += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return e

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def _trace_slow(self, x: int) -> int:
        acc = x
        frob = x
        for _ in range(self.f - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        digits = self.digits(acc)
        if any(digits[1:]):
            raise RuntimeError(f"trace of {x} left the prime subfield")
        return digits[0]

    def trace(self, x: int) -> int:
        """Field trace F_q -> F_p (identity when f = 1)."""
        return self._trace_table[x]

    # cached numpy tables for vectorized sweeps (small q only)

    def add_table(self) -> np.ndarray:
        if self._add_table is None:
            if self.q > _TABLE_Q_LIMIT:
                raise ValueError("q too large for a dense addition table")
            self._add_table = np.array(
                [[self.add(a, b) for b in range(self.q)] for a in range(self.q)],
                dtype=np.int64,
            )
        return self._add_table

    def mul_table(self) -> np.ndarray:
        if self._mul_np is None:
            if self.q > _TABLE_Q_LIMIT:
                raise ValueError("q too large for a dense multiplication table")
            self._mul_np = np.array(
                [[self.mul(a, b) for b in range(self.q)] for a in range(self.q)],
                dtype=np.int64,
            )
        return self._mul_np

    def __repr__(self) -> str:
        return f"FieldTable(p={self.p}, f={self.f})"


@lru_cache(maxsize=32)
def field(p: int, f: int = 1) -> FieldTable:
    """Cached field constructor."""
    return FieldTable(p, f)


def field_for_order(q: int) -> FieldTable:
    """FieldTable for a prime power q."""
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

    def float_weights(self) -> np.ndarray:
        return np.array([float(w) for w in self.weights])


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
    if fld.q <= _TABLE_Q_LIMIT:
        roots = np.exp(2j * np.pi * np.arange(fld.p) / fld.p)
        tr = np.array(fld._trace_table, dtype=np.int64)
        chars = roots[tr[fld.mul_table()]]
        return chars @ mu.float_weights()
    return np.array([mu_hat(mu, x) for x in fld.elements()])


@dataclass(frozen=True)
class SpectrumSet:
    """Elements where |mu_hat| >= 1 - eps (with numeric slack toward
    inclusion, so downstream non-containment checks only get stricter)."""

    field: FieldTable
    eps: float
    members: FrozenSet[int]

    def __contains__(self, x: int) -> bool:
        return x in self.members


def spec_set(mu: FqDistribution, eps: float) -> SpectrumSet:
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    mags = np.abs(mu_hat_all(mu))
    members = frozenset(int(x) for x in np.nonzero(mags >= 1 - eps - SLACK)[0])
    return SpectrumSet(mu.field, eps, members)


# -- exact dot-product laws ------------------------------------------------


def _check_coefficients(fld: FieldTable, w: Sequence[int]) -> None:
    if any(not 0 <= wl < fld.q for wl in w):
        raise ValueError(f"coefficients must be field elements 0..{fld.q - 1}")


def exact_dot_distribution(mu: FqDistribution, w: Sequence[int]) -> Tuple[Fraction, ...]:
    """Exact law of sum_l xi_l * w_l by iterated convolution."""
    fld = mu.field
    _check_coefficients(fld, w)
    law = [Fraction(0)] * fld.q
    law[0] = Fraction(1)
    for wl in w:
        if wl == 0:
            continue  # a zero coefficient leaves the law unchanged
        nxt = [Fraction(0)] * fld.q
        for s in range(fld.q):
            ls = law[s]
            if ls:
                for t, wt in enumerate(mu.weights):
                    if wt:
                        nxt[fld.add(s, fld.mul(wl, t))] += ls * wt
        law = nxt
    return tuple(law)


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
        out.append(frozenset(fld.encode(vec) for vec in elements))
    return out


def balance_alpha(mu: FqDistribution) -> Fraction:
    """1 - max mass of any coset of a proper additive subgroup."""
    fld = mu.field
    best = Fraction(0)
    for sub in additive_subgroups(fld, max_dim=fld.f - 1):
        seen = set()
        for s in fld.elements():
            if s in seen:
                continue
            coset = frozenset(fld.add(s, t) for t in sub)
            seen |= coset
            mass = sum(mu.weights[x] for x in coset)
            if mass > best:
                best = mass
    return 1 - best


# -- Littlewood-Offord bound check ----------------------------------------


@dataclass(frozen=True)
class LoBoundResult:
    lhs: float
    rhs: float
    holds: bool
    alpha: Fraction
    support_size: int
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
        return LoBoundResult(lhs, math.inf, True, alpha, m, prob, True)
    rhs = 2.0 / math.sqrt(float(alpha) * m)
    return LoBoundResult(lhs, rhs, lhs <= rhs + SLACK, alpha, m, prob, False)


# -- level sets -------------------------------------------------------------


def _psi_values(mu: FqDistribution) -> np.ndarray:
    return 1.0 - np.abs(mu_hat_all(mu)) ** 2


def _level_function(mu: FqDistribution, w: Sequence[int]) -> np.ndarray:
    fld = mu.field
    _check_coefficients(fld, w)
    psi = _psi_values(mu)
    f = np.zeros(fld.q)
    for wl in w:
        if wl:
            f += psi[[fld.mul(wl, t) for t in fld.elements()]]
    return f


def check_level_set_nesting(mu: FqDistribution, w: Sequence[int], v: float, k: int) -> bool:
    """Exhaustively verify T(v) + ... + T(v) (k-fold) lies inside T(k^2 v),
    where T(v) = {t : sum_l psi(w_l t) <= v} and psi = 1 - |mu_hat|^2."""
    if k < 1:
        raise ValueError("k must be at least 1")
    fld = mu.field
    f = _level_function(mu, w)
    base = {int(t) for t in np.nonzero(f <= v + SLACK)[0]}
    if not base:
        return True
    acc = set(base)
    for _ in range(k - 1):
        acc = {fld.add(x, y) for x in acc for y in base}
    target_v = k * k * v
    return all(f[t] <= target_v + SLACK for t in acc)


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
        if sub <= spectrum.members:
            return SubgroupCheckResult(alpha, True, False, sub)
    return SubgroupCheckResult(alpha, True, True, None)


# -- exhaustive sweeps ---------------------------------------------------------


def _dedup_compositions(total: int, parts: int):
    """Compositions of `total` into `parts` nonnegative parts whose overall
    gcd with `total` is 1 (so each distribution appears at one denominator)."""
    for comp in itertools.product(range(total + 1), repeat=parts - 1):
        rest = total - sum(comp)
        if rest < 0:
            continue
        c = comp + (rest,)
        g = math.gcd(total, *c)
        if g == 1:
            yield c


def _weight_batches(q: int, max_den: int):
    """Yield (denominator, numerator matrix) batches of distributions."""
    for d in range(1, max_den + 1):
        block = np.array(list(_dedup_compositions(d, q)), dtype=np.int64)
        if block.size:
            yield d, block


def _alpha_numerators(fld: FieldTable, den: int, numerators: np.ndarray) -> np.ndarray:
    """alpha * den for each distribution row, via proper-subgroup cosets."""
    best = np.zeros(numerators.shape[0], dtype=np.int64)
    for sub in additive_subgroups(fld, max_dim=fld.f - 1):
        members = sorted(sub)
        seen = set()
        for s in fld.elements():
            if s in seen:
                continue
            coset = [fld.add(s, t) for t in members]
            seen |= set(coset)
            mass = numerators[:, coset].sum(axis=1)
            np.maximum(best, mass, out=best)
    return den - best


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


def _dot_law_numerators(fld: FieldTable, numerators: np.ndarray, w: Sequence[int]) -> np.ndarray:
    """Per row of numerators (a law over a common denominator den), the law of
    sum_l xi_l * w_l as integer numerators over den^len(w), by convolution."""
    q = fld.q
    add = fld.add_table()
    mul = fld.mul_table()
    law = np.zeros((numerators.shape[0], q), dtype=np.int64)
    law[:, 0] = 1
    for wl in w:
        nxt = np.zeros_like(law)
        targets = add[np.arange(q)[:, None], mul[wl]]  # targets[s, t]
        for s in range(q):
            contrib = law[:, s : s + 1] * numerators
            np.add.at(nxt, (slice(None), targets[s]), contrib)
        law = nxt
    return law


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


def cosine_sweep(instances: int = 100_000, max_k: int = 6, seed: int = 0) -> SweepReport:
    """Random sweep of the cosine inequality, vectorized per tuple length."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    per_k = instances // max_k
    cases = 0
    violations: List[dict] = []
    for k in range(1, max_k + 1):
        count = per_k if k < max_k else instances - per_k * (max_k - 1)
        betas = rng.uniform(-math.pi, math.pi, size=(count, k))
        lhs = np.cos(betas.sum(axis=1))
        rhs = k * np.cos(betas).sum(axis=1) - k * k + 1
        bad = np.nonzero(lhs < rhs - SLACK)[0]
        cases += count
        for i in bad:
            violations.append({"k": k, "betas": betas[i].tolist()})
    return SweepReport(cases, violations)


def level_set_sweep(
    q: int = 5,
    pairs: int = 2000,
    v_grid: Optional[Sequence[float]] = None,
    max_k: int = 4,
    seed: int = 0,
    max_den: int = 8,
) -> SweepReport:
    """Random (mu, w) pairs crossed with a v grid and fold counts k.

    Each instance runs the exhaustive nesting check; the pair count times
    grid size times max_k gives the instance total.
    """
    fld = field_for_order(q)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cases = 0
    violations: List[dict] = []
    for _ in range(pairs):
        numer = rng.integers(0, max_den + 1, size=q)
        if numer.sum() == 0:
            numer[0] = 1
        den = int(numer.sum())
        mu = FqDistribution(fld, tuple(Fraction(int(c), den) for c in numer))
        m = int(rng.integers(1, 5))
        w = [int(x) for x in rng.integers(0, q, size=m)]
        grid = v_grid if v_grid is not None else [0.25 * i for i in range(13)]
        for v in grid:
            for k in range(1, max_k + 1):
                cases += 1
                if not check_level_set_nesting(mu, w, float(v), k):
                    violations.append(
                        {"q": q, "weights": numer.tolist(), "w": w, "v": float(v), "k": k}
                    )
    return SweepReport(cases, violations)

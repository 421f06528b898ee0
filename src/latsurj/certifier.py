"""Surjectivity certification for integer matrices M: Z^m -> Z^n.

The decision procedure reduces the problem to finitely many primes: find a
nonsingular maximal square submatrix, take the gcd of two such
determinants (the lattice covolume divides both), factor that gcd, and
confirm full rank modulo each of its prime divisors.  A gcd of 1 certifies
surjectivity without any factoring at all.  When the gcd resists the
factoring budget the verdict falls back to Smith-form cokernel triviality.

Every verdict ships inside a :class:`Certificate` whose claims can be
re-checked from scratch with :func:`verify_certificate`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import primes as _primes
from .exact_linalg import IntMatrix, bareiss, cokernel, dets_mod_crt
from .modp import echelon, left_kernel_vector, rank_mod_p

SURJECTIVE = "surjective"
NOT_SURJECTIVE = "not_surjective"
METHOD_PRIME_REDUCTION = "prime_reduction"
METHOD_SNF_FALLBACK = "snf_fallback"

# fixed word-size prime used for fast rational pivot discovery
_PIVOT_PRIME = 2**31 - 1


@dataclass(frozen=True)
class Certificate:
    """Verifiable record of a surjectivity decision.

    For a surjective verdict via prime reduction the witness consists of
    one or two nonsingular maximal-submatrix column sets with their exact
    determinants, the gcd that was factored, its complete factorization,
    and one full-rank confirmation per prime divisor.  For not_surjective
    the witness is either a prime with a nonzero annihilating row vector,
    a rational rank deficiency, or a shape obstruction (fewer columns than
    rows).
    """

    verdict: str
    method: str
    reason: Optional[str] = None
    columns: Optional[Tuple[int, ...]] = None
    determinant: Optional[int] = None
    columns_alt: Optional[Tuple[int, ...]] = None
    determinant_alt: Optional[int] = None
    gcd_value: Optional[int] = None
    factorization: Optional[Tuple[Tuple[int, int], ...]] = None
    prime_checks: Optional[Tuple[Tuple[int, bool], ...]] = None
    prime: Optional[int] = None
    annihilator: Optional[Tuple[int, ...]] = None
    rational_rank: Optional[int] = None
    invariant_factors: Optional[Tuple[int, ...]] = None
    free_rank: Optional[int] = None

    @property
    def is_surjective(self) -> bool:
        return self.verdict == SURJECTIVE

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.verdict, "method": self.method}
        if self.reason is not None:
            out["reason"] = self.reason
        for key in (
            "columns",
            "determinant",
            "columns_alt",
            "determinant_alt",
            "gcd_value",
            "prime",
            "annihilator",
            "rational_rank",
            "invariant_factors",
            "free_rank",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = list(value) if isinstance(value, tuple) else value
        if self.factorization is not None:
            out["factorization"] = {str(p): e for p, e in self.factorization}
        if self.prime_checks is not None:
            out["prime_checks"] = {str(p): ok for p, ok in self.prime_checks}
        return out


def surjective_mod_p(m: IntMatrix, p: int) -> bool:
    """True iff M mod p has full row rank (i.e. is surjective onto F_p^n)."""
    if m.cols < m.rows:
        raise ValueError("need at least as many columns as rows")
    if not _primes.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return rank_mod_p(m.array, p) == m.rows


def _minors(m: IntMatrix, *column_sets) -> List[int]:
    """Determinants of the square submatrices of M on the given column
    sets, all in one stacked CRT elimination."""
    sets = [[operator.index(j) for j in columns] for columns in column_sets]
    if any(j < 0 or j >= m.cols for idx in sets for j in idx):
        raise IndexError("column index out of range")
    return dets_mod_crt([m.array[:, idx] for idx in sets])


def is_surjective(m: IntMatrix) -> Certificate:
    """Decide surjectivity of M: Z^cols -> Z^rows with a certificate."""
    if m.cols < m.rows:
        return Certificate(
            verdict=NOT_SURJECTIVE, method=METHOD_PRIME_REDUCTION, reason="shape"
        )

    # Full rank modulo the fixed pivot prime already proves full rational
    # rank; only a deficient result needs the exact pass.
    a = m.array
    pivots = echelon(a, _PIVOT_PRIME)[1]
    if len(pivots) < m.rows:
        pivots = bareiss(m)[0]
        if len(pivots) < m.rows:
            return Certificate(
                verdict=NOT_SURJECTIVE,
                method=METHOD_PRIME_REDUCTION,
                reason="rank_deficient",
                rational_rank=len(pivots),
            )

    # d1 and the first candidate minor are one stacked call; later
    # candidates run one at a time, only while the earlier ones are singular
    columns = tuple(pivots)
    candidates = [tuple(sorted(pivots[:-1] + [j])) for j in sorted(set(range(m.cols)) - set(pivots))]
    d1, *first = _minors(m, columns, *candidates[:1])
    if d1 == 0:
        # cannot happen off the exact path; guard against it anyway
        raise RuntimeError("pivot submatrix unexpectedly singular")

    columns_alt: Optional[Tuple[int, ...]] = None
    d2: Optional[int] = None
    for candidate in candidates:
        dc = first.pop() if first else _minors(m, candidate)[0]
        if dc != 0:
            columns_alt, d2 = candidate, dc
            break

    g = math.gcd(abs(d1), abs(d2)) if d2 is not None else abs(d1)
    if g == 1:
        return Certificate(
            verdict=SURJECTIVE,
            method=METHOD_PRIME_REDUCTION,
            columns=columns,
            determinant=d1,
            columns_alt=columns_alt,
            determinant_alt=d2,
            gcd_value=1,
            factorization=(),
            prime_checks=(),
        )

    try:
        factors = _primes.factorize(g)
    except _primes.FactorizationError:
        structure = cokernel(m)
        return Certificate(
            verdict=SURJECTIVE if structure.is_trivial else NOT_SURJECTIVE,
            method=METHOD_SNF_FALLBACK,
            reason=None if structure.is_trivial else "nontrivial_invariant_factors",
            invariant_factors=structure.invariant_factors,
            free_rank=structure.free_rank,
        )

    checks: List[Tuple[int, bool]] = []
    for p in sorted(factors):
        ok = rank_mod_p(a, p) == m.rows
        checks.append((p, ok))
        if not ok:
            return Certificate(
                verdict=NOT_SURJECTIVE,
                method=METHOD_PRIME_REDUCTION,
                reason="mod_p",
                prime=p,
                annihilator=left_kernel_vector(a, p),
            )
    return Certificate(
        verdict=SURJECTIVE,
        method=METHOD_PRIME_REDUCTION,
        columns=columns,
        determinant=d1,
        columns_alt=columns_alt,
        determinant_alt=d2,
        gcd_value=g,
        factorization=tuple(sorted(factors.items())),
        prime_checks=tuple(checks),
    )


def verify_certificate(m: IntMatrix, cert: Certificate) -> bool:
    """Re-check every claim of a certificate from scratch.

    Uses only modular rank computations and exact determinants; returns
    False on any mismatch instead of raising.
    """
    try:
        return _verify(m, cert)
    except Exception:
        return False


def _verify(m: IntMatrix, cert: Certificate) -> bool:
    if cert.method == METHOD_SNF_FALLBACK:
        structure = cokernel(m)
        claimed_trivial = cert.verdict == SURJECTIVE
        if structure.is_trivial != claimed_trivial:
            return False
        if cert.invariant_factors is not None:
            if tuple(cert.invariant_factors) != structure.invariant_factors:
                return False
        return True

    if cert.verdict == NOT_SURJECTIVE:
        if cert.reason == "shape":
            return m.cols < m.rows
        if cert.reason == "rank_deficient":
            if cert.rational_rank is None:
                return False
            rank = len(bareiss(m)[0])
            return rank == cert.rational_rank and rank < m.rows
        if cert.reason == "mod_p":
            p, w = cert.prime, cert.annihilator
            if p is None or w is None or not _primes.is_probable_prime(p):
                return False
            if len(w) != m.rows or all(x % p == 0 for x in w):
                return False
            # w must annihilate every column of M mod p; the object dtype of
            # w makes the product exact on either dtype of M
            return not (np.array(w, dtype=object) @ m.array % p).any()
        return False

    # surjective via prime reduction
    if cert.columns is None or cert.determinant is None or cert.gcd_value is None:
        return False
    if len(cert.columns) != m.rows or len(set(cert.columns)) != m.rows:
        return False
    column_sets = [cert.columns]
    if cert.columns_alt is not None:
        if cert.determinant_alt is None or len(cert.columns_alt) != m.rows:
            return False
        column_sets.append(cert.columns_alt)
    d1, *alt = _minors(m, *column_sets)
    if d1 != cert.determinant or d1 == 0:
        return False
    if alt:
        if alt[0] != cert.determinant_alt or alt[0] == 0:
            return False
        expected_gcd = math.gcd(abs(d1), abs(alt[0]))
    else:
        expected_gcd = abs(d1)
    if cert.gcd_value != expected_gcd:
        return False
    factorization = dict(cert.factorization or ())
    product = 1
    for p, e in factorization.items():
        if e < 1 or not _primes.is_probable_prime(p):
            return False
        if cert.determinant % p != 0:
            return False
        product *= p**e
    if product != cert.gcd_value:
        return False
    checked = dict(cert.prime_checks or ())
    if set(checked) != set(factorization):
        return False
    for p in factorization:
        if not checked[p]:
            return False
        if rank_mod_p(m.array, p) != m.rows:
            return False
    return True

"""Surjectivity certification for integer matrices M: Z^m -> Z^n.

M is surjective exactly when the gcd of its maximal minors, the index of
its image lattice, is 1.  The decider finds a nonsingular maximal minor by
elimination modulo the prime 2^31 - 1 and takes the gcd g of two such
minors.  When g > 1 it eliminates M modulo g with unit pivots.  A pivot
that is a zero divisor splits g by a gcd (dynamic evaluation, the D5
principle of Della Dora, Dicrescenzo and Duval), and each part is settled
on its own, smallest first: full rank modulo a part gives a column set
whose minor is a unit modulo that part, and lower rank gives a row vector
that annihilates M modulo that part.  A square M takes det M and a few
rows of its adjugate from one CRT elimination instead: a row nonzero
modulo |det M| annihilates M modulo |det M|.  No step factors an integer
or tests one for primality.

Every verdict ships inside a :class:`Certificate` that
:func:`verify_certificate` re-checks from scratch with exact minors or one
product, in the style of Kaltofen, Nehring and Saunders, "Quadratic-time
certificates in linear algebra" (ISSAC 2011).
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .exact_linalg import IntMatrix, adjugate_rows, dets_mod_crt
from .modp import NonUnitPivot, echelon, left_kernel_vector

# Never called here.  The benchmark's per-layer trace still wraps these two
# names in this module, and its tests expect their spans to exist.
from .exact_linalg import cokernel  # noqa: F401
from .modp import rank_mod_p  # noqa: F401

SURJECTIVE = "surjective"
NOT_SURJECTIVE = "not_surjective"

# fixed word-size prime used for fast rational pivot discovery
_PIVOT_PRIME = 2**31 - 1


@dataclass(frozen=True)
class Certificate:
    """Verifiable record of a surjectivity decision (certificate format 2).

    Surjective: `columns` and `columns_alt` index two nonsingular maximal
    minors, `determinant` and `determinant_alt` (both alt fields are None
    when every other candidate minor is singular), and `gcd_value` is
    their gcd.  When it exceeds 1, `extra_columns` lists one more column
    set per part of it.  All the listed minors together have gcd 1, and
    the index of the image lattice divides it.

    Not surjective: `reason` is "shape" (fewer columns than rows) or
    "annihilator", with a `modulus` N >= 2 and a row vector `annihilator`
    w such that w M = 0 and w != 0 modulo N.  N may be composite: if
    M X = I over Z, then w = (w M) X = 0 modulo N.
    """

    verdict: str
    reason: Optional[str] = None
    columns: Optional[Tuple[int, ...]] = None
    determinant: Optional[int] = None
    columns_alt: Optional[Tuple[int, ...]] = None
    determinant_alt: Optional[int] = None
    gcd_value: Optional[int] = None
    extra_columns: Optional[Tuple[Tuple[int, ...], ...]] = None
    modulus: Optional[int] = None
    annihilator: Optional[Tuple[int, ...]] = None

    @property
    def is_surjective(self) -> bool:
        return self.verdict == SURJECTIVE

    def to_dict(self) -> dict:
        out: dict = {"format": 2, "verdict": self.verdict}
        for key in (
            "reason",
            "columns",
            "determinant",
            "columns_alt",
            "determinant_alt",
            "gcd_value",
            "extra_columns",
            "modulus",
            "annihilator",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = _listed(value)
        return out


def _listed(value):
    """Tuples, nested or not, as JSON lists."""
    return [_listed(x) for x in value] if isinstance(value, tuple) else value


def _minors(m: IntMatrix, *column_sets) -> List[int]:
    """Determinants of the square submatrices of M on the given column
    sets, all in one stacked CRT elimination."""
    sets = [[operator.index(j) for j in columns] for columns in column_sets]
    if any(j < 0 or j >= m.cols for idx in sets for j in idx):
        raise IndexError("column index out of range")
    return dets_mod_crt([m.array[:, idx] for idx in sets])


def _split(n: int, d: int) -> List[int]:
    """The parts of n after a zero divisor with gcd d, 1 < d < n.

    They are gcd(n, d^inf), the part of n on the primes of d, and its
    coprime cofactor, when that exceeds 1; otherwise d alone, which has
    the same primes as n.
    """
    rest, common = n, math.gcd(n, d)
    while common > 1:
        rest //= common
        common = math.gcd(rest, common)
    return [n // rest, rest] if rest > 1 else [d]


def _parts(n: int, attempt: Callable[[int], object]) -> Iterator[Tuple[int, object]]:
    """(q, attempt(q)) for parts q of n, smallest first; none when n = 1.

    An attempt that meets a zero divisor modulo q (NonUnitPivot) splits q,
    and its parts join the queue.  The parts are pairwise coprime, and
    every prime of n divides one of them.
    """
    queue = [n] if n > 1 else []
    while queue:
        q = heapq.heappop(queue)
        try:
            result = attempt(q)
        except NonUnitPivot as split:
            for part in _split(q, split.divisor):
                heapq.heappush(queue, part)
            continue
        yield q, result


def _annihilator(a: np.ndarray, n: int) -> Certificate:
    """The not-surjective certificate for M of rank below rows modulo
    every prime of n: a left kernel vector modulo n, or modulo the
    smallest part of n if that elimination splits it."""
    modulus, w = next(_parts(n, lambda q: left_kernel_vector(a, q)))
    if w is None:
        raise RuntimeError("no left kernel vector below full rank")
    return Certificate(verdict=NOT_SURJECTIVE, reason="annihilator", modulus=modulus, annihilator=w)


def _certify_square(a: np.ndarray) -> Certificate:
    """The certificate of a square M from det M = d and rows of adj(M):
    w M = d e_j, so a row w != 0 modulo g = |d| > 1 annihilates M modulo g."""
    d, rows = adjugate_rows(a)
    if d % _PIVOT_PRIME == 0:
        # rank below rows modulo the pivot prime, as for any other shape
        return _annihilator(a, _PIVOT_PRIME)
    g = abs(d)
    if g == 1:
        return Certificate(verdict=SURJECTIVE, columns=tuple(range(len(a))), determinant=d, gcd_value=1)
    for w in rows % g:
        if w.any():
            return Certificate(verdict=NOT_SURJECTIVE, reason="annihilator", modulus=g, annihilator=tuple(w.tolist()))
    return _annihilator(a, g)


def is_surjective(m: IntMatrix) -> Certificate:
    """Decide surjectivity of M: Z^cols -> Z^rows with a certificate."""
    if m.cols < m.rows:
        return Certificate(verdict=NOT_SURJECTIVE, reason="shape")

    a = m.array
    if m.is_square:
        return _certify_square(a)
    # rank below rows modulo the pivot prime already rules surjectivity out
    pivots = echelon(a, _PIVOT_PRIME)[1]
    if len(pivots) < m.rows:
        return _annihilator(a, _PIVOT_PRIME)

    # d1 and the first candidate minor are one stacked call; later
    # candidates run one at a time, only while the earlier ones are singular
    columns = tuple(pivots)
    candidates = [tuple(sorted(pivots[:-1] + [j])) for j in sorted(set(range(m.cols)) - set(pivots))]
    d1, *first = _minors(m, columns, *candidates[:1])
    if d1 == 0:
        # the minor is nonzero modulo the pivot prime; guard the CRT anyway
        raise RuntimeError("pivot submatrix unexpectedly singular")

    columns_alt: Optional[Tuple[int, ...]] = None
    d2: Optional[int] = None
    for candidate in candidates:
        dc = first.pop() if first else _minors(m, candidate)[0]
        if dc != 0:
            columns_alt, d2 = candidate, dc
            break

    g = math.gcd(d1, d2) if d2 is not None else abs(d1)
    extra: List[Tuple[int, ...]] = []
    for q, part_pivots in _parts(g, lambda q: echelon(a, q)[1]):
        if len(part_pivots) < m.rows:
            return _annihilator(a, q)
        # unit pivots: the minor on these columns is a unit modulo q
        extra.append(tuple(part_pivots))
    return Certificate(
        verdict=SURJECTIVE,
        columns=columns,
        determinant=d1,
        columns_alt=columns_alt,
        determinant_alt=d2,
        gcd_value=g,
        extra_columns=tuple(extra) if extra else None,
    )


def verify_certificate(m: IntMatrix, cert: Certificate) -> bool:
    """Re-check every claim of a certificate from scratch.

    A surjective verdict costs one stacked CRT call over the listed
    column sets and a gcd; an annihilator costs one exact product w M mod
    N.  No rank, factoring or primality test is involved.  Returns False
    on any mismatch instead of raising.
    """
    try:
        return _verify(m, cert)
    except Exception:
        return False


def _verify(m: IntMatrix, cert: Certificate) -> bool:
    if cert.verdict == NOT_SURJECTIVE:
        if cert.reason == "shape":
            return m.cols < m.rows
        if cert.reason != "annihilator":
            return False
        n = operator.index(cert.modulus)
        w = [operator.index(x) for x in cert.annihilator]
        if n < 2 or len(w) != m.rows or all(x % n == 0 for x in w):
            return False
        # the object dtype of w makes the product exact on either dtype of M
        return not (np.array(w, dtype=object) @ m.array % n).any()

    if cert.verdict != SURJECTIVE:
        return False
    if (cert.columns_alt is None) != (cert.determinant_alt is None):
        return False
    sets = [cert.columns] if cert.columns_alt is None else [cert.columns, cert.columns_alt]
    claimed = [cert.determinant, cert.determinant_alt][: len(sets)]
    listed = sets + list(cert.extra_columns or ())
    if any(len(s) != m.rows or len(set(s)) != m.rows for s in listed):
        return False
    minors = _minors(m, *listed)
    if minors[: len(sets)] != claimed or 0 in claimed:
        return False
    return cert.gcd_value == math.gcd(*claimed) and math.gcd(*minors) == 1

"""Surjectivity certification for integer matrices M: Z^m -> Z^n.

M is surjective exactly when the gcd of its maximal minors, the index of
its image lattice, is 1.  One CRT solve gives the minor d on the first n
columns A (on the greedy pivot columns modulo 2^31 - 1 when that prime
divides d) and a few rows of adj(A).  By Cramer's rule these rows times
the other columns B are the swap minors, A with one column replaced, and
their gcd g with d is nearly always the index: the denominators of
A^-1 B carry all of det A but the index (Abbott, Bronstein and Mulders,
ISSAC 1999).  When g > 1, a row w of adj(A) nonzero modulo g annihilates
M modulo g, as w A = d e_j and w B are 0 modulo g.  Otherwise M is
eliminated modulo g with unit pivots.  A pivot that is a zero divisor
splits g by a gcd (:func:`latsurj.modp.parts`), and each part is settled
on its own, smallest first, by a column set whose minor is a unit modulo
that part or by a row vector that annihilates M modulo that part.  No
step factors an integer or tests one for primality.

Every verdict ships inside a :class:`Certificate` that
:func:`verify_certificate` re-checks from scratch with exact minors or one
product, in the style of Kaltofen, Nehring and Saunders, "Quadratic-time
certificates in linear algebra" (ISSAC 2011).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from .exact_linalg import IntMatrix, adjugate_rows, crt_solve
from .modp import echelon, left_kernel_vector, parts

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

    Surjective: `determinant` is the nonsingular maximal minor on
    `columns`, `determinant_alt` the one on `columns_alt`, the first swap
    of one of those columns in place that lowers the gcd (both None when
    none does), and `gcd_value` their gcd.  `extra_columns` lists the
    later swaps that lowered it, then one set per part of what remained.
    All the listed minors together have gcd 1, and the index of the image
    lattice divides it.

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
        out: dict = {"format": 2}
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None:
                out[field.name] = _listed(value)
        return out


def _listed(value):
    """Tuples, nested or not, as JSON lists."""
    return [_listed(x) for x in value] if isinstance(value, tuple) else value


def _column_set(m: IntMatrix, columns) -> Tuple[int, ...]:
    """columns as distinct column indices of M, one per row."""
    s = tuple(operator.index(j) for j in columns)
    if len(s) != m.rows or len(set(s)) != m.rows or not all(0 <= j < m.cols for j in s):
        raise ValueError("not a maximal column set")
    return s


def _minors(m: IntMatrix, sets: List[Tuple[int, ...]]) -> List[int]:
    """The maximal minors of M on column sets of _column_set.

    A = M[:, sets[0]].  One CRT solve of [A | C], C the distinct columns
    that the sets differing from sets[0] in one position bring in, gives
    det A and, by Cramer's rule, the minor of the set with column j at
    position i as X[i, C.index(j)], X = det A * A^-1 C; only the rows of X
    from the first such position on are solved.  The other sets, and all
    of them when X is None, take one more :func:`crt_solve` call.
    """
    a, base = m.array, sets[0]
    swaps = {}  # set index -> (position, column brought in)
    for t, s in enumerate(sets[1:], 1):
        differ = [i for i, (j, k) in enumerate(zip(base, s)) if j != k]
        if len(differ) == 1:
            swaps[t] = (differ[0], s[differ[0]])
    brought = sorted({j for _, j in swaps.values()})
    first = min((i for i, _ in swaps.values()), default=len(base))
    d, x = crt_solve([a[:, list(base) + brought]], first)[0]
    minors = {0: d}
    if x is not None:
        minors.update((t, x[i - first, brought.index(j)]) for t, (i, j) in swaps.items())
    rest = [t for t in range(len(sets)) if t not in minors]
    if rest:
        minors.update((t, d) for t, (d, _) in zip(rest, crt_solve([a[:, sets[t]] for t in rest])))
    return [minors[t] for t in range(len(sets))]


def _annihilator(a: np.ndarray, n: int) -> Certificate:
    """The not-surjective certificate for M of rank below rows modulo
    every prime of n: a left kernel vector modulo n, or modulo the
    smallest part of n if that elimination splits it."""
    modulus, w = next(parts(n, lambda q: left_kernel_vector(a, q)))
    if w is None:
        raise RuntimeError("no left kernel vector below full rank")
    return Certificate(verdict=NOT_SURJECTIVE, reason="annihilator", modulus=modulus, annihilator=w)


def is_surjective(m: IntMatrix) -> Certificate:
    """Decide surjectivity of M: Z^cols -> Z^rows with a certificate."""
    if m.cols < m.rows:
        return Certificate(verdict=NOT_SURJECTIVE, reason="shape")

    a, n = m.array, m.rows
    columns = tuple(range(n))
    d, rows = adjugate_rows(a[:, columns])
    if d % _PIVOT_PRIME == 0:
        # the greedy pivot columns modulo the pivot prime instead; rank
        # below rows there already rules surjectivity out
        columns = tuple(echelon(a, _PIVOT_PRIME)[1])
        if len(columns) < n:
            return _annihilator(a, _PIVOT_PRIME)
        d, rows = adjugate_rows(a[:, columns])

    # row t of `rows` is row i = n - len(rows) + t of adj(A), so by Cramer's
    # rule (rows @ B)[t, k] is the minor of A with column i replaced in
    # place by column k of B; the last column of A is replaced first
    rest = sorted(set(range(m.cols)) - set(columns))
    swaps = rows @ a[:, rest]
    g, kept = abs(d), []
    for t in reversed(range(len(rows))):
        i = n - len(rows) + t
        for j, minor in zip(rest, swaps[t]):
            if math.gcd(g, minor) < g:
                g = math.gcd(g, minor)
                kept.append((columns[:i] + (j,) + columns[i + 1 :], minor))

    # w A = d e_j and w B, a row of swaps, are 0 modulo g
    for w in rows % g:
        if w.any():
            return Certificate(verdict=NOT_SURJECTIVE, reason="annihilator", modulus=g, annihilator=tuple(w.tolist()))
    extra = [s for s, _ in kept[1:]]
    for q, part_pivots in parts(g, lambda q: echelon(a, q)[1]):
        if len(part_pivots) < n:
            return _annihilator(a, q)
        # unit pivots: the minor on these columns is a unit modulo q
        extra.append(tuple(part_pivots))
    columns_alt, d2 = kept[0] if kept else (None, None)
    return Certificate(
        verdict=SURJECTIVE,
        columns=columns,
        determinant=d,
        columns_alt=columns_alt,
        determinant_alt=d2,
        gcd_value=math.gcd(d, d2) if kept else abs(d),
        extra_columns=tuple(extra) if extra else None,
    )


def verify_certificate(m: IntMatrix, cert: Certificate) -> bool:
    """Re-check every claim of a certificate from scratch.

    A surjective verdict costs one CRT solve of [A | C], A on `columns`
    and C the columns that the listed one-column swaps in place bring in:
    by Cramer's rule it gives det A and every swap minor, solving only the
    rows from the first swapped position on.  Any other listed set, and
    every set when a CRT prime divides det A, takes one more stacked CRT
    call; then one gcd.  An annihilator costs one exact product w M mod N.
    No rank, factoring or primality test is involved.  Returns False on
    any mismatch instead of raising.
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
    minors = _minors(m, [_column_set(m, s) for s in sets + list(cert.extra_columns or ())])
    if minors[: len(sets)] != claimed or 0 in claimed:
        return False
    return cert.gcd_value == math.gcd(*claimed) and math.gcd(*minors) == 1

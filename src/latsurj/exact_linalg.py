"""Arbitrary-precision integer matrix algebra.

Provides the immutable :class:`IntMatrix`, exact determinants (fraction-free
elimination, and a CRT fast path that runs :func:`latsurj.modp.echelon`
modulo word-size primes until their product passes twice the Hadamard
bound), Smith normal form with unimodular transforms, and cokernel
structure extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from . import primes as _primes
from .modp import echelon, int_array


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers, row-major."""

    rows: int
    cols: int
    entries: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(int(x) for x in self.entries))
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            raise ValueError("no rows")
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(int(x) for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def from_array(cls, a: np.ndarray) -> "IntMatrix":
        if a.ndim != 2:
            raise ValueError("need a 2-d array")
        return cls(a.shape[0], a.shape[1], tuple(int(x) for x in a.ravel()))

    # -- accessors ----------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Tuple[int, ...]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> List[List[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_array(self) -> np.ndarray:
        """Entries as a 2-d array: int64 when they all fit, else Python ints."""
        return int_array(self.entries).reshape(self.rows, self.cols)

    def max_abs(self) -> int:
        return max(abs(x) for x in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def take_columns(self, indices: Sequence[int]) -> "IntMatrix":
        idx = list(indices)
        if any(j < 0 or j >= self.cols for j in idx):
            raise IndexError("column index out of range")
        return IntMatrix(
            self.rows,
            len(idx),
            tuple(self.at(i, j) for i in range(self.rows) for j in idx),
        )

    def append_columns(self, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in columns]
        if any(len(c) != self.rows for c in cols):
            raise ValueError("column length must equal row count")
        new = []
        for i in range(self.rows):
            new.extend(self.row(i))
            new.extend(c[i] for c in cols)
        return IntMatrix(self.rows, self.cols + len(cols), tuple(new))

    def __str__(self) -> str:
        return format_matrix(self)


# -- text format -------------------------------------------------------
# First line "rows cols", then one whitespace-separated row per line.


def format_matrix(m: IntMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(" ".join(str(x) for x in m.row(i)) for i in range(m.rows))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> IntMatrix:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text must start with 'rows cols'")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(body)}")
    return IntMatrix(rows, cols, tuple(int(t) for t in body))


# -- determinants ------------------------------------------------------


def _det_bound(n: int, k0: int) -> int:
    """True Hadamard bound k0^n * n^(n/2) >= |det| for |entries| <= k0."""
    if n % 2 == 0:
        return k0**n * n ** (n // 2)
    power = n**n
    s = math.isqrt(power)
    if s * s < power:
        s += 1
    return k0**n * s


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _det_residues(a: np.ndarray) -> Iterator[Tuple[int, int]]:
    """(p, det(a) mod p) over word-size CRT primes, lazily.

    The primes stop once their product exceeds twice the Hadamard bound
    for a's actual maximum entry, which pins the signed determinant.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("determinant requires a square matrix")
    bound = 2 * _det_bound(a.shape[0], max(1, int(a.max()), -int(a.min())))
    modulus = 1
    for p in _primes.crt_primes(bound.bit_length() // 29 + 1):
        yield p, echelon(a, p)[2]
        modulus *= p
        if modulus > bound:
            return


def det_mod_crt(m: IntMatrix) -> int:
    """Exact determinant via CRT over word-size primes."""
    residue, modulus = 0, 1
    for p, r in _det_residues(m.to_array()):
        # lift: x = residue (mod modulus), x = r (mod p)
        residue += modulus * ((r - residue) * pow(modulus, -1, p) % p)
        modulus *= p
    return residue - modulus if residue > modulus // 2 else residue


def det(m: IntMatrix) -> int:
    """Exact determinant.  Small matrices use Bareiss, larger ones CRT."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    if m.rows <= 8:
        return det_bareiss(m)
    return det_mod_crt(m)


def det_is_zero(m: IntMatrix | np.ndarray) -> bool:
    """Exact singularity test of a square IntMatrix or integer array.

    Stops at the first nonzero modular residue; only a genuinely singular
    matrix pays for the full CRT prime set.
    """
    a = m.to_array() if isinstance(m, IntMatrix) else np.asarray(m)
    return not any(r for _, r in _det_residues(a))


# -- Smith normal form -------------------------------------------------


@dataclass(frozen=True)
class SnfDecomposition:
    """left * M * right = diag with unimodular left/right transforms."""

    left: IntMatrix
    diag: IntMatrix
    right: IntMatrix

    def diagonal(self) -> Tuple[int, ...]:
        n = min(self.diag.rows, self.diag.cols)
        return tuple(self.diag.at(i, i) for i in range(n))


def _min_abs_pivot(a: List[List[int]], t: int, n: int, m: int):
    best = None
    pos = None
    for i in range(t, n):
        row = a[i]
        for j in range(t, m):
            v = row[j]
            if v != 0:
                av = abs(v)
                if best is None or av < best:
                    best = av
                    pos = (i, j)
                    if best == 1:
                        return pos
    return pos


def _snf_inplace(a: List[List[int]], u: List[List[int]] | None, v: List[List[int]] | None) -> None:
    """Reduce a to Smith form in place, accumulating row ops in u, column
    ops in v (either may be None when transforms are not needed).

    Pivoting picks the minimum-absolute-value nonzero entry each round,
    which keeps coefficient growth tolerable at desk scale.
    """
    n, m = len(a), len(a[0])
    t = 0
    while t < min(n, m):
        pos = _min_abs_pivot(a, t, n, m)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            if u is not None:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            if v is not None:
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if u is not None:
                u[t] = [-x for x in u[t]]

        dirty = False
        pivot = a[t][t]
        for i in range(t + 1, n):
            q = a[i][t] // pivot
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, m):
            q = a[t][j] // pivot
            if q:
                for row in a:
                    row[j] -= q * row[t]
                if v is not None:
                    for row in v:
                        row[j] -= q * row[t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue  # smaller remainders appeared; re-pick the pivot

        # row and column t are clear; enforce divisibility on the rest
        fixed = True
        for i in range(t + 1, n):
            row = a[i]
            if any(x % pivot for x in row[t + 1 :]):
                a[t] = [x + y for x, y in zip(a[t], row)]
                if u is not None:
                    u[t] = [x + y for x, y in zip(u[t], u[i])]
                fixed = False
                break
        if fixed:
            t += 1


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with unimodular transforms."""
    a = m.to_rows()
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    v = [[1 if i == j else 0 for j in range(m.cols)] for i in range(m.cols)]
    _snf_inplace(a, u, v)
    return SnfDecomposition(
        IntMatrix.from_rows(u), IntMatrix.from_rows(a), IntMatrix.from_rows(v)
    )


def smith_diagonal(m: IntMatrix) -> Tuple[int, ...]:
    """Just the diagonal of the Smith form (no transforms; cheaper)."""
    a = m.to_rows()
    _snf_inplace(a, None, None)
    return tuple(a[i][i] for i in range(min(m.rows, m.cols)))


# -- cokernel ----------------------------------------------------------


@dataclass(frozen=True)
class CokernelStructure:
    """Invariant-factor chain plus free rank of Z^rows / M(Z^cols)."""

    invariant_factors: Tuple[int, ...]
    free_rank: int

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        fac = self.invariant_factors
        if any(d < 2 for d in fac):
            raise ValueError("invariant factors must be >= 2")
        if any(fac[i + 1] % fac[i] for i in range(len(fac) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when the free rank is positive."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors) if self.invariant_factors else 1


def cokernel(m: IntMatrix) -> CokernelStructure:
    """Cokernel structure from the Smith diagonal."""
    diag = smith_diagonal(m)
    rank = sum(1 for d in diag if d != 0)
    factors = tuple(d for d in diag if d > 1)
    return CokernelStructure(factors, m.rows - rank)


@dataclass(frozen=True)
class CokernelPPart:
    """Exponents of p in the invariant factors, plus the free rank."""

    p: int
    exponents: Tuple[int, ...]
    free_rank: int

    @property
    def corank_mod_p(self) -> int:
        return len(self.exponents) + self.free_rank


def cokernel_p_part(m: IntMatrix, p: int) -> CokernelPPart:
    """p-power exponents of each invariant factor (zeros dropped).

    The corank of M mod p equals the number of p-divisible invariant
    factors plus the free rank.
    """
    if not _primes.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    structure = cokernel(m)
    exponents = []
    for d in structure.invariant_factors:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e:
            exponents.append(e)
    return CokernelPPart(p, tuple(exponents), structure.free_rank)

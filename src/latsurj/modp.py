"""Linear algebra over prime fields F_p.

Two elimination backends sit behind every operation: vectorized int64
arithmetic for word-size moduli (p < 2^31, so residue products fit in
int64) and plain Python integers for larger primes, which the certifier
does produce when determinants carry huge prime divisors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import primes as _primes
from .exact_linalg import IntMatrix

_WORD_PRIME_LIMIT = 2**31


@dataclass(frozen=True)
class ModMatrix:
    """Matrix over F_p with entries reduced to [0, p)."""

    modulus: int
    rows: int
    cols: int
    entries: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not _primes.is_probable_prime(self.modulus):
            raise ValueError(f"{self.modulus} is not prime")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count mismatch")
        if any(x < 0 or x >= self.modulus for x in self.entries):
            raise ValueError("entries must be reduced to [0, modulus)")

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Tuple[int, ...]:
        return self.entries[j :: self.cols]

    def to_array(self) -> np.ndarray:
        return np.array(
            [self.entries[i * self.cols : (i + 1) * self.cols] for i in range(self.rows)],
            dtype=np.int64,
        )

    def transpose(self) -> "ModMatrix":
        return ModMatrix(
            self.modulus,
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )


def reduce_mod(m: IntMatrix, p: int) -> ModMatrix:
    """Entrywise reduction of an integer matrix to nonnegative residues."""
    if not _primes.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return ModMatrix(p, m.rows, m.cols, tuple(x % p for x in m.entries))


# -- elimination -------------------------------------------------------


def rank_of_array(a: np.ndarray, p: int) -> int:
    """Rank over F_p of an int64 array (word-size p), by elimination."""
    if p >= _WORD_PRIME_LIMIT:
        raise ValueError("rank_of_array needs a word-size modulus; use rank_mod_p")
    a = np.mod(a.astype(np.int64, copy=True), p)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        below = a[r + 1 :, c]
        if below.any():
            block = a[r + 1 :, c:]
            block -= below[:, None] * a[r, c:]
            block %= p
        r += 1
        if r == rows:
            break
    return r


def _rank_python(rows: List[List[int]], p: int) -> int:
    r = 0
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(r + 1, n_rows):
            f = rows[i][c] % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == n_rows:
            break
    return r


def rank_mod_p(m: ModMatrix) -> int:
    """Rank of m over F_p."""
    if m.modulus < _WORD_PRIME_LIMIT:
        return rank_of_array(m.to_array(), m.modulus)
    return _rank_python([list(m.row(i)) for i in range(m.rows)], m.modulus)


def corank_mod_p(m: ModMatrix) -> int:
    return m.rows - rank_mod_p(m)


# -- batched ranks ---------------------------------------------------------


def pack_gf2(a: np.ndarray) -> np.ndarray:
    """Rows of an integer array mod 2 as bit-packed uint64 words.

    Shape (..., n, m) becomes (..., n, ceil(m / 64)); column j is bit
    j % 64 of word j // 64.  Negative entries reduce like any other
    (-1 is odd).
    """
    bytes_ = np.packbits((a & 1).astype(np.uint8), axis=-1, bitorder="little")
    pad = -bytes_.shape[-1] % 8
    if pad:
        bytes_ = np.concatenate([bytes_, np.zeros(bytes_.shape[:-1] + (pad,), np.uint8)], axis=-1)
    return np.ascontiguousarray(bytes_).view("<u8")


def gf2_ranks(packed: np.ndarray, cols: int) -> np.ndarray:
    """Ranks over F_2 of a (T, n, W) stack of pack_gf2 matrices with `cols` columns.

    All T matrices are eliminated together, one column at a time: each
    takes its first row carrying the bit as pivot and XORs it into every
    row carrying the bit, the pivot included.  The pivot row thus drops
    out as zero and counts one toward the rank; no other row keeps the bit.
    """
    rows = np.array(packed, dtype=np.uint64)
    count, n, _ = rows.shape
    trial = np.arange(count)
    ranks = np.zeros(count, dtype=np.int64)
    for c in range(cols):
        hit = ((rows[:, :, c // 64] >> (c % 64)) & 1).astype(bool)
        piv = hit.argmax(axis=1)
        pivot_rows = rows[trial, piv]
        np.bitwise_xor(rows, pivot_rows[:, None, :], out=rows, where=hit[:, :, None])
        ranks += hit[trial, piv]
        if (ranks == n).all():
            break
    return ranks


def ranks_mod_p(stack, p: int) -> np.ndarray:
    """Rank over F_p (p prime) of each matrix in a (T, n, m) integer stack, as int64[T].

    p = 2 packs the stack into bits and eliminates all trials at once;
    other word-size primes take rank_of_array per matrix, and larger
    primes the arbitrary-precision rank_mod_p.
    """
    stack = np.asarray(stack)
    if p == 2:
        return gf2_ranks(pack_gf2(stack), stack.shape[-1])
    if p < _WORD_PRIME_LIMIT:
        return np.array([rank_of_array(a, p) for a in stack], dtype=np.int64)
    return np.array(
        [rank_mod_p(ModMatrix(p, *a.shape, tuple(int(x) % p for x in a.ravel()))) for a in stack],
        dtype=np.int64,
    )


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, List[int]]:
    """Reduced row echelon form and pivot column list (word-size p)."""
    a = np.mod(a.astype(np.int64, copy=True), p)
    rows, cols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _rref_python(rows: List[List[int]], p: int) -> tuple[List[List[int]], List[int]]:
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] % p:
                f = rows[i][c] % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def kernel_vector(m: ModMatrix) -> Optional[Tuple[int, ...]]:
    """One nonzero vector of the right kernel of m, or None if injective."""
    p = m.modulus
    if p < _WORD_PRIME_LIMIT:
        rref, pivots = _rref_array(m.to_array(), p)
        rref = rref.tolist()
    else:
        rref, pivots = _rref_python([list(m.row(i)) for i in range(m.rows)], p)
    pivot_set = set(pivots)
    free = next((j for j in range(m.cols) if j not in pivot_set), None)
    if free is None:
        return None
    x = [0] * m.cols
    x[free] = 1
    for r, c in enumerate(pivots):
        x[c] = (-rref[r][free]) % p
    return tuple(x)


def left_kernel_vector(m: ModMatrix) -> Optional[Tuple[int, ...]]:
    """One nonzero row vector w with w @ m = 0 over F_p, or None."""
    return kernel_vector(m.transpose())


# -- incremental column spaces ------------------------------------------


class ColumnSpace:
    """Persistent reduced-echelon span of column vectors over F_p.

    The basis is kept fully reduced with unit pivots, so membership of x
    reduces to one matrix-vector product: x is in the span iff
    x == sum_i x[pivot_i] * basis_i.  Extension returns a new value.
    """

    __slots__ = ("modulus", "ambient", "_pivots", "_basis")

    def __init__(self, modulus: int, ambient: int, _pivots=None, _basis=None):
        if not _primes.is_probable_prime(modulus):
            raise ValueError(f"{modulus} is not prime")
        if ambient < 1:
            raise ValueError("ambient dimension must be positive")
        self.modulus = modulus
        self.ambient = ambient
        self._pivots: Tuple[int, ...] = _pivots if _pivots is not None else ()
        if _basis is not None:
            self._basis = _basis
        elif modulus < _WORD_PRIME_LIMIT:
            self._basis = np.zeros((0, ambient), dtype=np.int64)
        else:
            self._basis = ()

    @property
    def dimension(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> Tuple[int, ...]:
        return self._pivots

    def basis_rows(self) -> List[Tuple[int, ...]]:
        if isinstance(self._basis, np.ndarray):
            return [tuple(int(x) for x in row) for row in self._basis]
        return [tuple(row) for row in self._basis]

    @classmethod
    def from_columns(cls, modulus: int, columns: Sequence[Sequence[int]], ambient: int) -> "ColumnSpace":
        space = cls(modulus, ambient)
        for col in columns:
            space = space.extend(col)
        return space

    @classmethod
    def from_matrix(cls, m: IntMatrix, p: int) -> "ColumnSpace":
        reduced = reduce_mod(m, p)
        return cls.from_columns(p, [reduced.column(j) for j in range(m.cols)], m.rows)

    def _check(self, x: Sequence[int]) -> None:
        if len(x) != self.ambient:
            raise ValueError(
                f"vector length {len(x)} does not match ambient dimension {self.ambient}"
            )

    def _residual(self, x: Sequence[int]):
        p = self.modulus
        if isinstance(self._basis, np.ndarray):
            vec = np.mod(np.asarray(x, dtype=np.int64), p)
            if self.dimension == 0:
                return vec
            coeffs = vec[np.array(self._pivots, dtype=np.intp)]
            return (vec - coeffs @ self._basis) % p
        vec = [v % p for v in x]
        for piv, row in zip(self._pivots, self._basis):
            c = vec[piv]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
        return vec

    def contains(self, x: Sequence[int]) -> bool:
        self._check(x)
        r = self._residual(x)
        if isinstance(r, np.ndarray):
            return not r.any()
        return not any(r)

    def extend(self, x: Sequence[int]) -> "ColumnSpace":
        """Span of self and x; dimension grows by one iff x is outside."""
        self._check(x)
        p = self.modulus
        r = self._residual(x)
        if isinstance(r, np.ndarray):
            nz = np.nonzero(r)[0]
            if nz.size == 0:
                return self
            j = int(nz[0])
            inv = pow(int(r[j]), -1, p)
            new_row = r * inv % p
            if self.dimension:
                col = self._basis[:, j].copy()
                basis = (self._basis - np.outer(col, new_row)) % p
            else:
                basis = self._basis
            pivots = list(self._pivots)
            insert_at = 0
            while insert_at < len(pivots) and pivots[insert_at] < j:
                insert_at += 1
            pivots.insert(insert_at, j)
            basis = np.insert(basis, insert_at, new_row, axis=0)
            basis.setflags(write=False)
            return ColumnSpace(p, self.ambient, tuple(pivots), basis)
        # big-prime backend
        if not any(r):
            return self
        j = next(i for i, v in enumerate(r) if v)
        inv = pow(r[j], -1, p)
        new_row = tuple(v * inv % p for v in r)
        rows = []
        for row in self._basis:
            c = row[j]
            if c:
                rows.append(tuple((a - c * b) % p for a, b in zip(row, new_row)))
            else:
                rows.append(tuple(row))
        pivots = list(self._pivots)
        insert_at = 0
        while insert_at < len(pivots) and pivots[insert_at] < j:
            insert_at += 1
        pivots.insert(insert_at, j)
        rows.insert(insert_at, new_row)
        return ColumnSpace(p, self.ambient, tuple(pivots), tuple(rows))


# -- sparse annihilators -------------------------------------------------

_SPARSE_ROW_LIMIT = 24


def has_sparse_annihilator(m: ModMatrix, delta: Fraction | float) -> Optional[Tuple[int, ...]]:
    """Search for nonzero w with w @ m = 0 and |supp(w)| <= delta * rows.

    Supports are enumerated in increasing size (then lexicographically),
    so the first witness found has minimal support.  Returns None when no
    such vector exists.
    """
    if m.rows > _SPARSE_ROW_LIMIT:
        raise ValueError(
            f"support enumeration is limited to {_SPARSE_ROW_LIMIT} rows, got {m.rows}"
        )
    p = m.modulus
    max_support = int(Fraction(delta) * m.rows)
    rows = [m.row(i) for i in range(m.rows)]
    for size in range(1, max_support + 1):
        for support in itertools.combinations(range(m.rows), size):
            sub = [rows[i] for i in support]
            # dependency among the selected rows <=> kernel of the
            # (cols x size) matrix whose columns are those rows
            stacked = ModMatrix(
                p, m.cols, size, tuple(sub[k][j] for j in range(m.cols) for k in range(size))
            )
            coeffs = kernel_vector(stacked)
            if coeffs is not None:
                w = [0] * m.rows
                for idx, c in zip(support, coeffs):
                    w[idx] = c % p
                return tuple(w)
    return None


# -- subspace enumeration ------------------------------------------------


def iter_subspaces(p: int, n: int, dims: Optional[Sequence[int]] = None) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """All subspaces of F_p^n as reduced-row-echelon bases.

    Yields one basis (tuple of length-n row vectors) per subspace; the
    zero subspace is the empty tuple.  Intended for exhaustive checks at
    small p and n; the count is the Gaussian binomial sum.
    """
    if dims is None:
        dims = range(n + 1)
    for d in dims:
        if d == 0:
            yield ()
            continue
        for pivots in itertools.combinations(range(n), d):
            free_positions = [
                (r, c)
                for r in range(d)
                for c in range(pivots[r] + 1, n)
                if c not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_positions)):
                basis = [[0] * n for _ in range(d)]
                for r in range(d):
                    basis[r][pivots[r]] = 1
                for (r, c), v in zip(free_positions, values):
                    basis[r][c] = v
                yield tuple(tuple(row) for row in basis)


def subspace_elements(p: int, basis: Sequence[Sequence[int]], n: int) -> List[Tuple[int, ...]]:
    """All p^dim elements spanned by a basis over F_p."""
    elements = [(0,) * n]
    for row in basis:
        new = []
        for e in elements:
            for c in range(p):
                new.append(tuple((a + c * b) % p for a, b in zip(e, row)))
        elements = new
    return elements

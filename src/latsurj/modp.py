"""Linear algebra over prime fields F_p, and over Z/N with unit pivots.

One elimination kernel, :func:`echelon`, serves every whole-matrix
operation but the determinant: rank, greedy pivot columns and kernel
bases are all read off its row echelon form.  It runs the same numpy
code on an int64 array for word-size moduli (below 2^31, so a product of
two residues fits in int64) and on an object array of Python integers
beyond, which the certifier needs when it eliminates modulo a huge gcd of
minors.  The modulus may be composite: while every pivot is a unit the
elimination is valid modulo every prime factor at once, and a pivot that
is a zero divisor raises :class:`NonUnitPivot` with a proper divisor of
the modulus.  Determinants mod p come from one stacked kernel,
:func:`det_solve`, which eliminates a (k, n, n + s) stack [A | B] with its
own prime per slice and also gives det A * A^-1 B (:func:`dets` is its
s = 0 case); both kernels reduce the trailing block only every few
columns.  Stacks of matrices mod 2 have their own bit-packed kernel
(:func:`gf2_ranks`), and :class:`ColumnSpace` holds a growing span as its
annihilator.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import primes as _primes

# moduli below this keep int64 residues
_WORD_LIMIT = 2**31


class NonUnitPivot(ArithmeticError):
    """A nonzero pivot that is not a unit modulo a composite modulus.

    `divisor` is gcd(pivot, modulus), a divisor of the modulus strictly
    between 1 and the modulus.
    """

    def __init__(self, divisor: int) -> None:
        super().__init__(f"pivot shares the factor {divisor} with the modulus")
        self.divisor = divisor


def int_array(a) -> np.ndarray:
    """a as an int64 array, or an object array of Python ints when an entry
    does not fit (numpy itself would pick uint64 or float64).

    Bools count as 0 and 1.  Anything else that is not an integer (floats,
    even integral ones, complex numbers, strings, other objects) is a
    ValueError.
    """
    if not isinstance(a, np.ndarray):
        b = np.asarray(a)
        # numpy reads ints on both sides of 2^63 as floats: recheck as objects
        a = b if b.dtype.kind in "bi" else np.array(a, dtype=object)
    if a.dtype.kind in "bi":
        return a.astype(np.int64, copy=False)
    if a.dtype.kind not in "uO":
        raise ValueError(f"entries must be integers, not {a.dtype}")
    try:
        # operator.index takes ints, bools and numpy integers, and no floats
        values = [operator.index(x) for x in a.flat]
    except TypeError:
        raise ValueError("entries must be integers") from None
    try:
        return np.array(values, dtype=np.int64).reshape(a.shape)
    except OverflowError:
        return np.array(values, dtype=object).reshape(a.shape)


def _residues(a, p, dtype) -> np.ndarray:
    """A fresh array of the entries of a reduced to [0, p), as int64 or
    object; p is one modulus or an array of them that broadcasts against a."""
    a = int_array(a)
    if dtype == object and a.dtype != object:
        a = a.astype(object)  # Python ints: no wraparound, no overflow
    return np.mod(a, p).astype(dtype, copy=False)


# -- elimination -------------------------------------------------------


def echelon(a, p: int) -> Tuple[np.ndarray, List[int]]:
    """Row echelon form of an integer matrix over Z/p, p >= 2.

    Returns (e, pivots).  e is a reduced mod p, with zeros below each
    pivot; pivot rows are not normalised.  pivots lists the pivot column
    of each nonzero row of e, which are the greedy first independent
    columns of a, so len(pivots) is the rank.  For composite p every
    pivot is a unit, so the same holds modulo each prime factor of p; the
    first nonzero pivot candidate that is not a unit raises NonUnitPivot.
    The caller's array is never modified.  As in :func:`dets`, the block is
    reduced every _lazy_columns(p) updates and the pivot column and row when read.
    """
    e = _residues(a, p, np.int64 if p < _WORD_LIMIT else object)
    rows, cols = e.shape
    lazy = _lazy_columns(p)
    pivots: List[int] = []
    for c in range(cols):
        r = len(pivots)  # also the updates so far, of which r % lazy are unreduced
        if r == rows:
            break
        column = e[r:, c]
        if r % lazy:
            column %= p
        nz = column.nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            e[[r, i]] = e[[i, r]]
        try:
            inverse = pow(int(e[r, c]), -1, p)
        except ValueError:
            raise NonUnitPivot(math.gcd(int(e[r, c]), p)) from None
        row = e[r, c + 1 :]
        if r % lazy:
            row %= p
        factors = e[r + 1 :, c] * inverse % p
        e[r + 1 :, c] = 0
        block = e[r + 1 :, c + 1 :]
        block -= factors[:, None] * row
        if (r + 1) % lazy == 0:
            block %= p
        pivots.append(c)
    return e, pivots


def _lazy_columns(p: int) -> int:
    """Columns of updates a trailing block mod p takes unreduced.

    A reduced entry lies in [0, p) and each column subtracts one product
    of two residues, at most (p - 1)^2, so L int64 columns stay above -2^63
    while L * (p - 1)^2 <= 2^63 - 1 - p: 8 for the CRT primes below 2^30.
    Python ints (p >= 2^31) only grow a few bits in 8 columns.
    """
    return (2**63 - 1 - p) // (p - 1) ** 2 if p < _WORD_LIMIT else 8


def dets(stack, primes: Sequence[int]) -> np.ndarray:
    """det(stack[t]) mod primes[t] for a (k, n, n) integer stack, as an
    array of k residues: :func:`det_solve` with no right-hand sides."""
    a = int_array(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("need a (k, n, n) stack and one prime per slice")
    return det_solve(a, primes)[0]


def det_solve(stack, primes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(det A, det A * A^-1 B) mod primes[t] for each slice [A | B] of a (k, n, n + s) stack.

    All slices share one loop over columns.  In each column every slice
    takes its first row with a nonzero residue as pivot, and only the
    pivot column and the pivot row are reduced mod p.  The trailing block,
    B included, gets plain multiply-subtract and is reduced every L
    columns, with L from the largest prime (:func:`_lazy_columns`); with
    s > 0 the pivot rows are kept for one back-substitution, reduced
    alike.  A slice with det 0 mod p solves to 0.  Slices are int64 while
    every prime is below 2^31, Python ints reduced every column beyond.
    """
    primes = [operator.index(p) for p in primes]
    top = max(primes, default=2)
    word = top < _WORD_LIMIT
    a = int_array(stack)
    if a.ndim != 3 or a.shape[0] != len(primes) or a.shape[2] < a.shape[1]:
        raise ValueError("need a (k, n, n + s) stack and one prime per slice")
    q = np.array(primes, dtype=np.int64 if word else object)
    qs, qc = q[:, None, None], q[:, None]
    # e is the trailing block: each column step drops its first row and column
    e = _residues(a, qs, q.dtype)
    k, n, width = e.shape
    lazy = _lazy_columns(top) if word else 1
    slices = np.arange(k)
    det = np.ones(k, dtype=e.dtype)
    # u[:, c] is the pivot row of column c over its pivot, when s > 0
    u = np.zeros((k, n, width if width > n else 0), dtype=e.dtype)
    for c in range(n):
        col = e[:, :, 0] % qc
        i = (col != 0).argmax(axis=1)
        pivot = col[slices, i]
        det = det * pivot % q
        if c == n - 1 and width == n:
            break
        row = e[:, 0, 1:]
        if i.any():
            # the pivot row leaves the block and row 0 takes its place
            det = np.where(i > 0, -det, det)
            row = e[slices, i, 1:]
            e[slices, i, 1:] = e[:, 0, 1:]
            col[slices, i] = col[:, 0]
        # a slice with no pivot already has det 0 and eliminates with factor 0
        inverse = np.array([pow(v, -1, p) if v else 0 for v, p in zip(pivot.tolist(), primes)], dtype=e.dtype)
        row = row % qc
        if width > n:
            u[:, c, c + 1 :] = row * inverse[:, None] % qc
        factors = col[:, 1:] * inverse[:, None] % qc
        e = e[:, 1:, 1:]
        e -= factors[:, :, None] * row[:, None, :]
        if (c + 1) % lazy == 0:
            e = e % qs
    # x[:, c] starts as the right-hand part of u[:, c] and loses the rest of row c times x
    x = u[:, :, n:]
    for c in range(n - 1, -1, -1) if width > n else ():
        x[:, c] %= qc
        x[:, :c] -= u[:, :c, c, None] * x[:, c, None, :]
        if (n - c) % lazy == 0:
            x[:, :c] %= qs
    return det, x * det[:, None, None] % qs


def rank_mod_p(a, p: int) -> int:
    """Rank over F_p of an integer matrix."""
    return len(echelon(a, p)[1])


def kernel_basis(a, p: int, count: Optional[int] = None) -> np.ndarray:
    """A basis of the x with a @ x = 0 over Z/p, one row per free column,
    or only its first `count` rows.

    Row t is 1 at the t-th free column of :func:`echelon` and 0 at the
    others; all rows back-substitute together, reduced like echelon.  A
    composite p can raise NonUnitPivot, as in echelon.
    """
    e, pivots = echelon(a, p)
    free = sorted(set(range(e.shape[1])) - set(pivots))[:count]
    x = np.zeros((len(free), e.shape[1]), dtype=e.dtype)
    x[range(len(free)), free] = 1
    # pivot rows past the last free column solve to 0 in every row of x
    rank = bisect.bisect(pivots, free[-1]) if free else 0
    # sums[i, t] is row i of e times the part of x[t] solved so far
    sums = e[:rank, free]
    for i in range(rank - 1, -1, -1):
        c = pivots[i]
        x[:, c] = -(sums[i] % p) * pow(int(e[i, c]), -1, p) % p
        sums[:i] += e[:i, c, None] * x[:, c]
        if (rank - i) % _lazy_columns(p) == 0:
            sums[:i] %= p
    return x


def kernel_vector(a, p: int) -> Optional[Tuple[int, ...]]:
    """The first row of :func:`kernel_basis` as a tuple, or None if a is
    injective; only the first free column is back-substituted."""
    basis = kernel_basis(a, p, 1)
    return tuple(int(v) for v in basis[0]) if len(basis) else None


def left_kernel_vector(a, p: int) -> Optional[Tuple[int, ...]]:
    """One nonzero row vector w with w @ a = 0 over Z/p, or None."""
    return kernel_vector(int_array(a).T, p)


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
    other primes run echelon on one matrix at a time.
    """
    stack = int_array(stack)
    if p == 2:
        return gf2_ranks(pack_gf2(stack), stack.shape[-1])
    return np.array([rank_mod_p(a, p) for a in stack], dtype=np.int64)


# -- incremental column spaces ------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue arrays (int64 with p < 2^31, or objects).  Where
    m * (p - 1)^2 could pass 2^63 (m = a.shape[1] < 2^15), a is split into
    16-bit halves, whose sums of products stay below 2^62."""
    if a.dtype == object or a.shape[1] * (p - 1) ** 2 < 2**63:
        return a @ b % p
    return ((a >> 16) @ b % p * 2**16 + (a & 0xFFFF) @ b) % p


class ColumnSpace:
    """Persistent span of column vectors over F_p, held as its annihilator.

    K is a (corank, ambient) basis of the rows y with y @ x = 0 for all x
    in the span: x is inside iff K @ x = 0.  Extending by columns X keeps
    y @ K for a left-kernel basis y of K @ X, a few short rows.  K is
    int64 for p < 2^31 and Python ints beyond, like :func:`echelon`.
    """

    __slots__ = ("modulus", "ambient", "_kernel")

    def __init__(self, modulus: int, ambient: int, _kernel=None):
        if _kernel is None:
            if not _primes.is_probable_prime(modulus):
                raise ValueError(f"{modulus} is not prime")
            if not 1 <= ambient < 2**15:
                raise ValueError("ambient dimension must lie in [1, 2^15)")
            _kernel = np.eye(ambient, dtype=np.int64 if modulus < _WORD_LIMIT else object)
        _kernel.setflags(write=False)
        self.modulus = modulus
        self.ambient = ambient
        self._kernel = _kernel

    @property
    def dimension(self) -> int:
        return self.ambient - self._kernel.shape[0]

    @classmethod
    def from_columns(cls, modulus: int, columns, ambient: int) -> "ColumnSpace":
        """Span of the given columns: vectors, or the rows of an array."""
        space = cls(modulus, ambient)
        columns = int_array(columns)
        return cls(modulus, ambient, kernel_basis(space._columns(columns.T).T, modulus)) if columns.size else space

    @classmethod
    def from_annihilator(cls, modulus: int, rows) -> "ColumnSpace":
        """The span of the x with rows @ x = 0, for rows independent mod the prime modulus."""
        kernel = _residues(rows, modulus, np.int64 if modulus < _WORD_LIMIT else object)
        return cls(modulus, kernel.shape[1], kernel)

    def _columns(self, x) -> np.ndarray:
        """x, a vector or an (ambient, k) block, with one column per vector."""
        x = int_array(x)
        x = x[:, None] if x.ndim == 1 else x
        if x.ndim != 2 or x.shape[0] != self.ambient:
            raise ValueError(f"vector length {x.shape[0]} does not match ambient dimension {self.ambient}")
        return x

    def contains(self, x: Sequence[int]) -> bool:
        return self.extend(x) is self

    def extend(self, x) -> "ColumnSpace":
        """Span of self and x, a vector or an (ambient, k) block of columns."""
        p = self.modulus
        product = _dot(self._kernel, _residues(self._columns(x), p, self._kernel.dtype), p)
        if not product.any():
            return self
        return ColumnSpace(p, self.ambient, _dot(kernel_basis(product.T, p), self._kernel, p))


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

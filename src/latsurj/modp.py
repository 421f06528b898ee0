"""Linear algebra over prime fields F_p, and over Z/N with unit pivots.

One elimination kernel, :func:`echelon`, serves every whole-matrix
operation but the determinant: rank, greedy pivot columns and left
kernels are all read off its row echelon form.  It runs the same numpy
code on an int64 array for word-size moduli (below 2^31, so a product of
two residues fits in int64) and on an object array of Python integers
beyond, which the certifier needs when it eliminates modulo a huge gcd of
minors.  The modulus may be composite: while every pivot is a unit the
elimination is valid modulo every prime factor at once, and a pivot that
is a zero divisor raises :class:`NonUnitPivot` with a proper divisor of
the modulus.  :func:`parts` then splits the modulus by gcds and settles
each part on its own (dynamic evaluation, the D5 principle of Della
Dora, Dicrescenzo and Duval), so that no caller factors an integer.
Determinants mod p come from one stacked kernel, :func:`det_solve`: it
eliminates a (k, n, n + s) int64 stack [A | B], one prime below 2^31 per
slice, in steps of one column or two (a 2 x 2 pivot block), each writing
its trailing block to a fresh contiguous array, and back-substitutes over
the same groups of rows for det A * A^-1 B, the exact solve
:func:`latsurj.exact_linalg.crt_solve` lifts.  Both kernels count the
products a trailing block takes unreduced.  Stacks mod 2 have their own
kernel (:func:`gf2_ranks`); :class:`ColumnSpace` is a span over Z/N.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

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


def parts(n: int, attempt: Callable[[int], object]) -> Iterator[Tuple[int, object]]:
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
    if a.dtype != object and a.size and a.min() >= 0 and int(a.max()) < int(np.min(p)):
        return a.astype(dtype)  # already reduced
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
    The caller's array is never modified.  As in :func:`det_solve`, the
    block is reduced every _lazy_products(p) updates and the pivot column
    and row when read.
    """
    e = _residues(a, p, np.int64 if p < _WORD_LIMIT else object)
    rows, cols = e.shape
    lazy = _lazy_products(p)
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


def _lazy_products(p: int) -> int:
    """Products of two residues that an entry of a trailing block mod p takes unreduced.

    A reduced entry lies in [0, p) and each product subtracted is at most
    (p - 1)^2, so L int64 products stay above -2^63 while
    L * (p - 1)^2 <= 2^63 - 1 - p: 8 for the CRT primes below 2^30 and 2
    just below 2^31.  Python ints (p >= 2^31) only grow a few bits in 8.
    """
    return (2**63 - 1 - p) // (p - 1) ** 2 if p < _WORD_LIMIT else 8


def det_solve(stack, primes: Sequence[int], first_row: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """(det A, rows first_row.. of det A * A^-1 B) mod primes[t] for each slice [A | B] of a (k, n, n + s) stack.

    All slices share one loop of steps over two columns, or one.  A step
    pivots on the leading 2 x 2 block when it is invertible in every slice
    and does not straddle row first_row; otherwise each slice pivots on
    its first row with a nonzero residue in the column.  The pivot rows,
    times the inverse of their block, clear the rows below with one
    rank-1 update per column.  The trailing block, B included, is reduced
    mod p only before its count of unreduced products would pass L, from
    the largest prime (:func:`_lazy_products`).  With s > 0 the pivot rows
    from first_row on are kept for one back-substitution over the same
    groups of rows, counted alike, that stops at row first_row.  A slice
    with det 0 mod p solves to 0.  Slices are int64, so every prime lies
    below 2^31; a larger one is a ValueError.
    """
    primes = [operator.index(p) for p in primes]
    top = max(primes, default=2)
    if top >= _WORD_LIMIT:
        raise ValueError(f"det_solve needs primes below 2^31, got {top}")
    a = int_array(stack)
    if a.ndim != 3 or a.shape[0] != len(primes) or a.shape[2] < a.shape[1]:
        raise ValueError("need a (k, n, n + s) stack and one prime per slice")
    first_row = operator.index(first_row)
    if not 0 <= first_row <= a.shape[1]:
        raise ValueError("first_row must lie in [0, n]")
    q = np.array(primes, dtype=np.int64)
    qs = q[:, None, None]
    # e is the trailing block: each step writes the next one, a fresh
    # contiguous array without the step's rows and columns
    e = _residues(a, qs, np.int64)
    k, n, width = e.shape
    lazy = _lazy_products(top)
    slices = np.arange(k)
    det = [1] * k
    # u[:, r - first_row] is pivot row r, times the inverse of its pivot
    # block, for r >= first_row when s > 0; groups holds the steps' rows
    solve = width > n
    u = np.zeros((k, n - first_row, width if solve else 0), dtype=e.dtype)
    groups: List[Tuple[int, int]] = []
    c = count = 0
    while c < n:
        head = e[:, :, :2] % qs
        blocks = head[:, :2].tolist() if c + 2 <= n and c + 1 != first_row else ()
        minors = [(w * z - x * y) % p for ((w, x), (y, z)), p in zip(blocks, primes)]
        step = 2 if minors and all(minors) else 1
        inverse = []
        if step == 2:
            for t, (((w, x), (y, z)), v, p) in enumerate(zip(blocks, minors, primes)):
                det[t] = det[t] * v % p
                v = pow(v, -1, p)
                inverse += (z * v % p, -x * v % p, -y * v % p, w * v % p)
            rows = e[:, :2, 2:]
        else:
            col = head[:, :, 0]
            pivot, rows = col[:, 0], e[:, :1, 1:]
            if not pivot.all():
                i = (col != 0).argmax(axis=1)
                pivot = col[slices, i]
                if i.any():
                    # the pivot row leaves the block and row 0 takes its place
                    for t in np.flatnonzero(i).tolist():
                        det[t] = -det[t]
                    rows = e[slices, i, 1:][:, None]
                    e[slices, i, 1:] = e[:, 0, 1:]
                    col[slices, i] = col[:, 0]
            # a slice with no pivot gets det 0 and eliminates with factor 0
            for t, (v, p) in enumerate(zip(pivot.tolist(), primes)):
                det[t] = det[t] * v % p
                inverse.append(pow(v, -1, p) if v else 0)
        if c + step == width:
            break
        # the pivot rows times the inverse of the pivot block
        rows = np.array(inverse, dtype=e.dtype).reshape(k, step, step) @ (rows % qs) % qs
        if solve and c >= first_row:
            u[:, c - first_row : c - first_row + step, c + step :] = rows
            groups.append((c, step))
        # the next trailing block is a fresh array: the due reduction writes
        # it, or else the first column's update
        if count + step > lazy:
            e, count, done = e[:, step:, step:] % qs, 0, 0
        else:
            e, done = e[:, step:, step:] - head[:, step:, 0, None] * rows[:, 0, None, :], 1
        for j in range(done, step):
            e -= head[:, step:, j, None] * rows[:, j, None, :]
        count += step
        c += step
    det = np.array(det, dtype=e.dtype)
    # x[:, r - first_row] starts as the right-hand part of u[:, r - first_row]
    # and loses the rest of row r times x, a group of rows at a time
    x, count = u[:, :, n:], 0
    for c, step in reversed(groups):
        t = c - first_row
        x[:, t : t + step] %= qs
        if count + step > lazy:
            x[:, :t], count = x[:, :t] % qs, 0
        x[:, :t] -= u[:, :t, c : c + step] @ x[:, t : t + step]
        count += step
    return det, x * det[:, None, None] % qs


def rank_mod_p(a, p: int) -> int:
    """Rank over F_p of an integer matrix."""
    return len(echelon(a, p)[1])


def left_kernel_vector(a, n: int) -> Optional[Tuple[int, ...]]:
    """One row vector w with w @ a = 0 over Z/n and a unit entry, or None
    when a has full row rank: the first annihilator row of the span of
    a's columns.  A composite n can raise NonUnitPivot, as in echelon."""
    a = int_array(a)
    kernel = ColumnSpace.from_columns(n, a.T, a.shape[0])._kernel
    return tuple(int(v) for v in kernel[0]) if len(kernel) else None


# -- batched ranks ---------------------------------------------------------


def pack_gf2(a: np.ndarray) -> np.ndarray:
    """Rows of an integer array mod 2 as bit-packed uint64 words.

    Shape (..., n, m) becomes (..., n, ceil(m / 64)); column j is bit
    j % 64 of word j // 64.  Negative entries reduce like any other
    (-1 is odd).
    """
    bytes_ = np.packbits((a & 1).astype(np.uint8, copy=False), axis=-1, bitorder="little")
    pad = -bytes_.shape[-1] % 8
    if pad:
        bytes_ = np.concatenate([bytes_, np.zeros(bytes_.shape[:-1] + (pad,), np.uint8)], axis=-1)
    return np.ascontiguousarray(bytes_).view("<u8")


def gf2_ranks(packed: np.ndarray, cols: int) -> np.ndarray:
    """Ranks over F_2 of a (T, n, W) stack of pack_gf2 matrices with `cols` columns.

    All T matrices are eliminated together.  When a row is one word
    (W = 1, cols <= 64) each step takes every matrix's largest row m as
    pivot on its leading bit and replaces every row r by min(r, r ^ m):
    exactly the rows holding that bit lose it, and m itself becomes 0.
    The rank is the number of steps with m != 0; a matrix whose m is 0
    has no nonzero row left, and every 8 steps the loop stops once all
    of them are there.  Wider rows are eliminated one column at a time:
    each matrix takes its first row carrying the bit as pivot and XORs it
    into every row carrying the bit, the pivot included, through the bit
    itself as a 0/1 uint64 multiplier of the pivot row.  The pivot row
    thus drops out as zero and counts one toward the rank; no other row
    keeps the bit.  Every 8 columns the loop stops once every matrix has
    full row rank.
    """
    rows = np.array(packed, dtype=np.uint64)
    count, n, width = rows.shape
    if width == 1:
        return _gf2_word_ranks(rows.reshape(count, n), min(n, cols))
    trial = np.arange(count)
    ranks = np.zeros(count, dtype=np.uint64)
    for c in range(cols):
        hit = (rows[:, :, c // 64] >> np.uint64(c % 64)) & np.uint64(1)
        piv = hit.argmax(axis=1)
        rows ^= rows[trial, piv][:, None, :] * hit[:, :, None]
        ranks += hit[trial, piv]
        if c % 8 == 7 and (ranks == n).all():
            break
    return ranks.astype(np.int64)


def _gf2_word_ranks(words: np.ndarray, steps: int) -> np.ndarray:
    """gf2_ranks of (T, n) one-word rows, reduced in place by at most
    `steps` leading-bit steps; step s keeps every matrix's pivot m in
    maxima[s], a (T, 1) row of the table whose nonzero entries count."""
    maxima = np.zeros((steps, len(words), 1), dtype=np.uint64)
    flipped = np.empty_like(words)
    for s, m in enumerate(maxima):
        np.maximum.reduce(words, axis=1, keepdims=True, out=m)
        np.bitwise_xor(words, m, out=flipped)
        np.minimum(words, flipped, out=words)
        if s % 8 == 7 and not m.any():
            break
    return np.count_nonzero(maxima, axis=(0, 2)).astype(np.int64)


# -- incremental column spaces ------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue arrays (int64 with p < 2^31, or objects).  Where
    m * (p - 1)^2 could pass 2^63 (m = a.shape[1] < 2^15), a is split into
    16-bit halves, whose sums of products stay below 2^62."""
    if a.dtype == object or a.shape[1] * (p - 1) ** 2 < 2**63:
        return a @ b % p
    return ((a >> 16) @ b % p * 2**16 + (a & 0xFFFF) @ b) % p


class ColumnSpace:
    """Persistent span of column vectors over Z/N, held as its annihilator.

    K is a (corank, ambient) basis of the rows y with y @ x = 0 for all x
    in the span: x is inside iff K @ x = 0.  Extending by columns X keeps
    the part over K of the rows of echelon([K @ X | K]) past its pivots in
    K @ X.  A composite N works while every pivot is a unit, as in
    :func:`echelon`.  K is int64 for N < 2^31 and Python ints beyond.
    """

    __slots__ = ("modulus", "ambient", "_kernel")

    def __init__(self, modulus: int, ambient: int, _kernel=None):
        if _kernel is None:
            if modulus < 2:
                raise ValueError(f"modulus {modulus} is below 2")
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

    @property
    def annihilator(self) -> np.ndarray:
        """K, read-only: x lies in the span iff K @ x = 0."""
        return self._kernel

    @classmethod
    def from_columns(cls, modulus: int, columns, ambient: int) -> "ColumnSpace":
        """Span of the given columns: vectors, or the rows of an array."""
        space = cls(modulus, ambient)
        columns = int_array(columns)
        # the annihilator is I, so K @ X is X itself; echelon reduces it
        return space._restrict(space._columns(columns.T)) if columns.size else space

    @classmethod
    def from_annihilator(cls, modulus: int, rows) -> "ColumnSpace":
        """The span of the x with rows @ x = 0, for rows independent modulo every prime of the modulus."""
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
        return self._restrict(product) if product.any() else self

    def _restrict(self, product: np.ndarray) -> "ColumnSpace":
        """The span annihilated by the y @ K with y @ product = 0, for product = K @ X
        and K of independent rows, so that every row of the echelon form holds a pivot."""
        k = product.shape[1]
        e, pivots = echelon(np.hstack([product, self._kernel]), self.modulus)
        return ColumnSpace(self.modulus, self.ambient, e[bisect.bisect(pivots, k - 1) :, k:])


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

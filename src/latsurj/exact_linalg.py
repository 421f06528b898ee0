"""Arbitrary-precision integer matrix algebra.

Provides the immutable :class:`IntMatrix` over one read-only ndarray,
one exact solve by CRT, :func:`crt_solve`, which gives det A and
det A * A^-1 B of integer blocks [A | B] over enough word-size primes for
their product to pass twice the row-norm Hadamard bound of the block, and
alone stacks the (block, prime) slices for :func:`latsurj.modp.det_solve`;
determinants and a few rows of the adjugate are its thin callers.  Also
Smith normal form with unimodular transforms, and cokernel structure
extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import primes as _primes
from .modp import det_solve, int_array


class IntMatrix:
    """Immutable dense integer matrix over one read-only 2-d ndarray.

    `array` is int64 when every entry fits and an object array of Python
    ints otherwise; equal matrices therefore share a dtype.
    """

    __slots__ = ("array",)

    def __init__(self, rows: int, cols: int, entries) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        a = np.array(int_array(entries))  # a copy: no caller keeps a writable view
        if a.size != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {a.size}")
        a = a.reshape(rows, cols)
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("IntMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            raise ValueError("no rows")
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, np.eye(n, dtype=np.int64))

    @classmethod
    def from_array(cls, a: np.ndarray) -> "IntMatrix":
        if a.ndim != 2:
            raise ValueError("need a 2-d array")
        return cls(a.shape[0], a.shape[1], a)

    # -- value semantics ----------------------------------------------

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.array.shape == other.array.shape and bool((self.array == other.array).all())

    def __hash__(self) -> int:
        return hash((self.array.shape, tuple(self.array.ravel().tolist())))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}, {self.cols}, {self.array.ravel().tolist()})"

    def __str__(self) -> str:
        return format_matrix(self)


# -- text format -------------------------------------------------------
# First line "rows cols", then one whitespace-separated row per line.


def format_matrix(m: IntMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(" ".join(map(str, row)) for row in m.array.tolist())
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> IntMatrix:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text must start with 'rows cols'")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(body)}")
    try:
        entries = np.array(body, dtype=np.int64)
    except (ValueError, OverflowError):  # past int64, or not an int: int() decides
        entries = int_array([int(t) for t in body])
    return IntMatrix(rows, cols, entries)


# -- determinants ------------------------------------------------------


def _det_bound(a: np.ndarray) -> int:
    """Row-norm Hadamard bound: the least integer >= prod_i ||a_i||_2 >= |det a|.

    Exact in Python ints, so entries near 2^63 cannot wrap.  It never
    exceeds k0^n * n^(n/2) for entries bounded by k0 in absolute value.
    """
    k0 = max(int(a.max()), -int(a.min()))
    if a.dtype == object or a.shape[1] * k0 * k0 >= 2**63:
        a = a.astype(object)
    square = math.prod((a * a).sum(axis=1).tolist())
    root = math.isqrt(square)
    return root if root * root == square else root + 1


# bytes of one int64 stack handed to modp.det_solve and of the matrices of one
# chunk of experiment trials; more primes than fit go in several stacks
_STACK_BYTES = 1 << 24


def _square(a) -> np.ndarray:
    a = int_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("determinant requires a square matrix")
    return a


def _crt_primes(a: np.ndarray) -> List[int]:
    """The fewest CRT primes whose product passes twice the Hadamard bound
    of the rows of a, which pins every signed maximal minor of a."""
    bound = 2 * _det_bound(a)
    chosen = _primes.crt_primes(bound.bit_length() // 29 + 1)
    modulus = 1
    for count, p in enumerate(chosen, 1):
        modulus *= p
        if modulus > bound:
            return chosen[:count]
    return chosen


def _solve_mod(
    blocks: Sequence[np.ndarray], pairs: Sequence[Tuple[int, int]], first_row: int = 0
) -> List[Tuple[int, np.ndarray]]:
    """(det A, rows first_row.. of det A * A^-1 B) mod p of blocks[i] for
    each (i, p) of pairs, from det_solve stacks of at most _STACK_BYTES."""
    size = max(1, _STACK_BYTES // (8 * blocks[0].size)) if pairs else 1
    out: List[Tuple[int, np.ndarray]] = []
    for s in range(0, len(pairs), size):
        chunk = pairs[s : s + size]
        d, x = det_solve(np.stack([blocks[i] for i, _ in chunk]), [p for _, p in chunk], first_row)
        out += zip(d.tolist(), x)
    return out


def crt_solve(blocks: Sequence, first_row: int = 0) -> List[Tuple[int, np.ndarray | None]]:
    """(det A, det A * A^-1 B) exactly for integer blocks [A | B] of one shape (n, n + s).

    By Cramer's rule each entry of det A * A^-1 B is a maximal minor of
    [A | B], so the CRT primes of a block pass twice its row-norm Hadamard
    bound, and every (block, prime) slice goes into the same stacks.  The
    solution is an (n - first_row, s) object array, its rows first_row..,
    which alone are back-substituted and lifted, or None when a CRT prime
    divides det A, 0 included.
    """
    blocks = [int_array(b) for b in blocks]
    if len({b.shape for b in blocks}) > 1 or any(b.ndim != 2 or b.shape[1] < b.shape[0] for b in blocks):
        raise ValueError("need integer blocks [A | B] of one shape (n, n + s)")
    plans = [_crt_primes(b) for b in blocks]
    solved = iter(_solve_mod(blocks, [(i, p) for i, ps in enumerate(plans) for p in ps], first_row))
    out = []
    for ps in plans:
        d, x = zip(*[next(solved) for _ in ps])
        out.append((_lift(ps, d), _lift(ps, x) if all(d) else None))
    return out


def dets_mod_crt(arrays: Sequence) -> List[int]:
    """Exact determinants of square integer arrays of one size: :func:`crt_solve` with s = 0."""
    return [d for d, _ in crt_solve([_square(a) for a in arrays])]


def _lift(primes: Sequence[int], residues):
    """The x with |x| < prod(primes) / 2 and x = residues[t] mod primes[t];
    residues may also be arrays in [0, primes[t]), lifted entrywise.  The
    Garner digits v_t of x = v_0 + p_0 (v_1 + p_1 (v_2 + ...)) are found in
    the residues' type (int64 for primes below 2^31), joined in Python ints."""
    digits = []
    for t, (p, r) in enumerate(zip(primes, residues)):
        s = 0  # the digits so far mod p, by Horner's rule
        for q, v in zip(reversed(primes[:t]), reversed(digits)):
            s = (s * q + v) % p
        digits.append((r - s) * pow(math.prod(primes[:t]) % p, -1, p) % p)
    x, modulus = 0, math.prod(primes)
    for p, v in zip(primes[::-1], digits[::-1]):
        x = x * p + (v.astype(object) if isinstance(v, np.ndarray) else v)
    return (x + modulus // 2) % modulus - modulus // 2


# rows of adj(a) that adjugate_rows computes, counted from the last
ADJUGATE_ROWS = 4


def adjugate_rows(a) -> Tuple[int, np.ndarray]:
    """det(a) and the last ADJUGATE_ROWS rows of adj(a), an object array, from
    one :func:`crt_solve` of [a^T | the unit columns J]: rows J of adj(a)
    are det z^T for the z with a^T z = the unit columns J.  No rows come
    back when a CRT prime divides det(a), 0 included."""
    t = _square(a).T
    block = np.hstack([t, np.eye(len(t), dtype=np.int64)[:, max(len(t) - ADJUGATE_ROWS, 0) :]])
    d, x = crt_solve([block])[0]
    return d, np.zeros((0, len(t)), dtype=object) if x is None else x.T


def det(m: IntMatrix) -> int:
    """Exact determinant via CRT over word-size primes."""
    return dets_mod_crt([m.array])[0]


def det_is_zero(m: IntMatrix | np.ndarray) -> bool:
    """Exact singularity test of a square IntMatrix or integer array.

    The first CRT prime runs alone, and a nonzero residue ends the test;
    only a matrix singular modulo that prime pays for the other primes,
    which run as one stack.
    """
    a = _square(m.array if isinstance(m, IntMatrix) else m)
    first, *rest = _crt_primes(a)
    if _solve_mod([a], [(0, first)])[0][0]:
        return False
    return not any(d for d, _ in _solve_mod([a], [(0, p) for p in rest]))


# -- Smith normal form -------------------------------------------------


@dataclass(frozen=True)
class SnfDecomposition:
    """left * M * right = diag with unimodular left/right transforms."""

    left: IntMatrix
    diag: IntMatrix
    right: IntMatrix

    def diagonal(self) -> Tuple[int, ...]:
        return tuple(self.diag.array.diagonal().tolist())


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
    a = m.array.tolist()
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    v = [[1 if i == j else 0 for j in range(m.cols)] for i in range(m.cols)]
    _snf_inplace(a, u, v)
    return SnfDecomposition(
        IntMatrix.from_rows(u), IntMatrix.from_rows(a), IntMatrix.from_rows(v)
    )


def smith_diagonal(m: IntMatrix) -> Tuple[int, ...]:
    """Just the diagonal of the Smith form (no transforms; cheaper)."""
    a = m.array.tolist()
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


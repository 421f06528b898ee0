"""Arbitrary-precision integer matrix algebra.

Provides the immutable :class:`IntMatrix` over one read-only ndarray and
its text format, read in one numeric pass where numpy reads every token
as int() does; one exact solve by CRT, :func:`crt_solve`, which gives
det A and det A * A^-1 B of integer blocks [A | B] over enough word-size
primes for their product to pass twice the row-norm Hadamard bound of
the block, alone stacks the (block, prime) slices for
:func:`latsurj.modp.det_solve`, and lifts their residues by one CRT sum;
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
    numbers = _read_numbers(text)
    if numbers is None:
        return _parse_tokens(text)
    return IntMatrix(int(numbers[0]), int(numbers[1]), numbers[2:-1])


def _parse_tokens(text: str) -> IntMatrix:
    """The text format token by token, for every text _read_numbers leaves."""
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


def _read_numbers(text: str) -> np.ndarray | None:
    """"rows cols" and the entries of a matrix text read by numpy in one
    pass, then a sentinel 0; None unless that pass read each token as one
    int64, as int() reads it, and exactly rows * cols entries.

    numpy stops at a token it cannot read (a float, an underscore, a
    non-ASCII digit, a NUL byte): it raises ValueError, or in older
    releases warns (DeprecationWarning, an error under -W error) and keeps
    what it read, which the count of tokens rejects.  That count also
    rejects a sign that numpy joins to the digits after whitespace.  numpy
    saturates past int64, hence no entry at either int64 limit.
    _parse_tokens decides every rejected text, with its own values, dtype
    and errors."""
    try:
        numbers = np.fromstring(text + " 0", dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if numbers.size < 3 or numbers[-1] != 0 or numbers[0] < 0 or numbers[1] < 0:
        return None
    if numbers.size != int(numbers[0]) * int(numbers[1]) + 3 or numbers.size != len(text.split()) + 1:
        return None
    if numbers.max() == 2**63 - 1 or numbers.min() == -(2**63):
        return None
    return numbers


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


def _lift(primes: Sequence[int], residues):
    """The x with |x| < prod(primes) / 2 and x = residues[t] mod primes[t];
    residues may also be int64 arrays in [0, primes[t]), lifted entrywise
    into an object array.  One CRT sum in Python ints: with M the product,
    x = sum_t r_t * (M / p_t) * ((M / p_t)^-1 mod p_t) mod M, centred."""
    modulus = math.prod(primes)
    x = 0
    for p, r in zip(primes, residues):
        cofactor = modulus // p
        basis = cofactor * pow(cofactor % p, -1, p)
        x = x + (r.astype(object) if isinstance(r, np.ndarray) else r) * basis
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
    return crt_solve([_square(m.array)])[0][0]


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


def _min_abs_pivot(a: List[List[int]], t: int, rows: int, cols: int):
    best = None
    pos = None
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            v = row[j]
            if v != 0:
                av = abs(v)
                if best is None or av < best:
                    best = av
                    pos = (i, j)
                    if best == 1:
                        return pos
    return pos


def _snf_inplace(a: List[List[int]], rows: int, cols: int) -> None:
    """Reduce the top-left rows x cols block of a to Smith form in place.

    Row operations act on whole rows of a and column operations on whole
    columns, so blocks of a beside and below the top-left one record them.
    Pivoting picks the minimum-absolute-value nonzero entry each round,
    which keeps coefficient growth tolerable at desk scale.
    """
    t = 0
    while t < min(rows, cols):
        pos = _min_abs_pivot(a, t, rows, cols)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

        dirty = False
        pivot = a[t][t]
        for i in range(t + 1, rows):
            q = a[i][t] // pivot
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = a[t][j] // pivot
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue  # smaller remainders appeared; re-pick the pivot

        # row and column t are clear; enforce divisibility on the rest
        for row in a[t + 1 : rows]:
            if any(x % pivot for x in row[t + 1 : cols]):
                a[t] = [x + y for x, y in zip(a[t], row)]
                break
        else:
            t += 1


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with unimodular transforms, read off the blocks
    U (top right), D (top left) and V (bottom left) of [[M, I], [I, 0]]."""
    n, k = m.rows, m.cols
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.array.tolist())]
    a += [[int(i == j) for j in range(k)] + [0] * n for i in range(k)]
    _snf_inplace(a, n, k)
    return SnfDecomposition(
        IntMatrix.from_rows([row[k:] for row in a[:n]]),
        IntMatrix.from_rows([row[:k] for row in a[:n]]),
        IntMatrix.from_rows([row[:k] for row in a[n:]]),
    )


def smith_diagonal(m: IntMatrix) -> Tuple[int, ...]:
    """Just the diagonal of the Smith form (no transforms; cheaper)."""
    a = m.array.tolist()
    _snf_inplace(a, m.rows, m.cols)
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


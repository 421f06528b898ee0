"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (permutation expansions, exhaustive
enumeration over supports and subspaces, fraction-free elimination on
whole object rows) and exact, so it validates the optimized library paths
without sharing code with them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Sequence, Tuple

from latsurj.exact_linalg import IntMatrix
from latsurj.modp import iter_subspaces, subspace_elements


def det_permutation_expansion(m: IntMatrix) -> int:
    """Sum over permutations of signed products; exact but O(n!)."""
    n = m.rows
    rows = m.array.tolist()
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= rows[i][perm[i]]
            if prod == 0:
                break
        total += prod
    return total


def cokernel_brute_force(m: IntMatrix) -> bool:
    """Trivial cokernel check via gcds of maximal minors (small only).

    M is surjective iff the gcd of all rows x rows minors is 1.
    """
    import math

    from latsurj.exact_linalg import det_bareiss

    if m.cols < m.rows:
        return False
    rows = m.array.tolist()
    g = 0
    for cols in itertools.combinations(range(m.cols), m.rows):
        g = math.gcd(g, det_bareiss(IntMatrix.from_rows([[row[j] for j in cols] for row in rows])))
        if g == 1:
            return True
    return False


def subspace_mass(
    p: int,
    basis: Sequence[Sequence[int]],
    n: int,
    residue_weights: Sequence[Fraction],
) -> Fraction:
    """Exact P(X in H) by summing the product weight over H's elements."""
    total = Fraction(0)
    for elem in subspace_elements(p, basis, n):
        prod = Fraction(1)
        for coord in elem:
            prod *= residue_weights[coord]
            if prod == 0:
                break
        total += prod
    return total


def subspace_mass_support_enumeration(
    p: int,
    basis: Sequence[Sequence[int]],
    n: int,
    residue_weights: Sequence[Fraction],
) -> Fraction:
    """Same probability by brute enumeration over support^n (the slower,
    fully independent route)."""
    support = [r for r in range(p) if residue_weights[r] > 0]
    members = set(subspace_elements(p, basis, n))
    total = Fraction(0)
    for tup in itertools.product(support, repeat=n):
        if tup in members:
            prod = Fraction(1)
            for coord in tup:
                prod *= residue_weights[coord]
            total += prod
    return total


def residue_distributions(p: int, max_den: int) -> List[Tuple[Fraction, ...]]:
    """All probability vectors on Z/p with weight denominators <= max_den,
    each appearing once in lowest terms."""
    seen = set()
    out = []
    for d in range(1, max_den + 1):
        for comp in itertools.product(range(d + 1), repeat=p - 1):
            rest = d - sum(comp)
            if rest < 0:
                continue
            weights = tuple(Fraction(c, d) for c in comp + (rest,))
            if weights not in seen:
                seen.add(weights)
                out.append(weights)
    return out


def odlyzko_violations(p: int, n_max: int, max_den: int) -> List[dict]:
    """Exhaustive check of P(X in H) <= (1-alpha)^(n-dim H).

    Exact rational arithmetic throughout; the subspace mass is computed by
    element enumeration and spot-agreement with support^n enumeration is
    asserted separately in the tests.
    """
    violations = []
    dists = residue_distributions(p, max_den)
    for n in range(1, n_max + 1):
        for basis in iter_subspaces(p, n):
            d = len(basis)
            if d == 0:
                continue  # the bound is stated for dim >= 1
            for weights in dists:
                alpha = 1 - max(weights)
                mass = subspace_mass(p, basis, n, weights)
                if mass > (1 - alpha) ** (n - d):
                    violations.append(
                        {"p": p, "n": n, "basis": basis, "weights": weights}
                    )
    return violations


def det_and_adjugate_product(rows, rhs=None):
    """(det A, adj(A) @ B) for square integer rows A and an n x s integer
    matrix B (default: no columns), exactly, by fraction-free Gauss-Jordan
    elimination over numpy object rows; adj(A) @ B is None when A is
    singular.

    Step k replaces every row i != k of [A | B] by (a_kk r_i - a_ik r_k)
    divided by the previous pivot, which divides exactly (Nakos, Turner,
    Williams 1997).  After n steps [A | B] is [d I | d A^-1 B] with
    d = det(P A) = +-det A for the row permutation P.
    """
    import numpy as np

    n = len(rows)
    b = np.zeros((n, 0), dtype=object) if rhs is None else np.array(rhs, dtype=object).reshape(n, -1)
    m = np.hstack([np.array(rows, dtype=object).reshape(n, n), b])
    sign, prev = 1, 1
    for k in range(n):
        nonzero = [i for i in range(k, n) if m[i, k] != 0]
        if not nonzero:
            return 0, None
        if nonzero[0] != k:
            m[[k, nonzero[0]]] = m[[nonzero[0], k]]
            sign = -sign
        others = [i for i in range(n) if i != k]
        m[others] = (m[k, k] * m[others] - m[others, k : k + 1] * m[k]) // prev
        prev = m[k, k]
    return sign * prev, sign * m[:, n:]


def det_fraction_free(rows) -> int:
    """det A by forward fraction-free (Bareiss) elimination over numpy object rows."""
    import numpy as np

    n = len(rows)
    m = np.array(rows, dtype=object).reshape(n, n)
    sign, prev = 1, 1
    for k in range(n):
        nonzero = [i for i in range(k, n) if m[i, k] != 0]
        if not nonzero:
            return 0
        if nonzero[0] != k:
            m[[k, nonzero[0]]] = m[[nonzero[0], k]]
            sign = -sign
        m[k + 1 :, k + 1 :] = (m[k, k] * m[k + 1 :, k + 1 :] - m[k + 1 :, k : k + 1] * m[k, k + 1 :]) // prev
        prev = m[k, k]
    return sign * prev if n else 1

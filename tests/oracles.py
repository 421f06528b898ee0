"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (permutation expansions, exhaustive
enumeration over supports and subspaces, digitwise field arithmetic, one
fraction-free elimination on whole object rows) and exact, so it validates
the optimized library paths without sharing code with them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

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


def crt_incremental(primes: Sequence[int], residues):
    """The x with |x| < prod(primes) / 2 and x = residues[t] mod primes[t],
    one prime at a time in Python ints: x += M * ((r - x) / M mod p), M *= p.
    residues may be Python ints or object arrays, lifted entrywise."""
    x, modulus = 0, 1
    for p, r in zip(primes, residues):
        x = x + modulus * ((r - x) * pow(modulus, -1, p) % p)
        modulus *= p
    return (x + modulus // 2) % modulus - modulus // 2


def naive_factorization(n: int) -> Dict[int, int]:
    """{prime: exponent} of |n| by trial division by every integer up to sqrt(|n|)."""
    n, out, d = abs(n), Counter(), 2
    while d * d <= n:
        while n % d == 0:
            out[d] += 1
            n //= d
        d += 1
    if n > 1:
        out[n] += 1
    return dict(out)


def alpha_min_brute_force(atoms: Sequence[Tuple[int, Fraction]]) -> Fraction:
    """min over primes p of 1 - the largest mass of a residue class mod p.

    Every prime up to twice the support's diameter is tried: by Bertrand's
    postulate one of them exceeds the diameter and merges no two atoms, as
    every larger prime does.  A point mass reports 0.
    """
    values = [v for v, _ in atoms]
    span = max(values) - min(values)
    if span == 0:
        return Fraction(0)
    best = Fraction(1)
    for p in range(2, 2 * span + 1):
        if naive_factorization(p) != {p: 1}:
            continue
        masses: Dict[int, Fraction] = {}
        for v, w in atoms:
            masses[v % p] = masses.get(v % p, Fraction(0)) + w
        best = min(best, 1 - max(masses.values()))
    return best


def cokernel_brute_force(m: IntMatrix) -> bool:
    """Trivial cokernel check via gcds of maximal minors (small only).

    M is surjective iff the gcd of all rows x rows minors is 1.
    """
    if m.cols < m.rows:
        return False
    rows = m.array.tolist()
    g = 0
    for cols in itertools.combinations(range(m.cols), m.rows):
        g = math.gcd(g, fraction_free([[row[j] for j in cols] for row in rows])[1])
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


def law_numerators(laws: Sequence[Sequence[Fraction]]) -> Tuple[np.ndarray, int]:
    """(W, D): W[law, r] = laws[law][r] * D as an int64 array, over the
    least common denominator D of every weight."""
    den = math.lcm(*(w.denominator for law in laws for w in law))
    return np.array([[int(w * den) for w in law] for law in laws], dtype=np.int64).reshape(len(laws), -1), den


def subspace_masses(p: int, basis: Sequence[Sequence[int]], n: int, numerators: np.ndarray) -> List[int]:
    """D^n P(X in H) for every law at once, in integers: the sum over H's
    elements of prod_i numerators[law, x_i].  H's elements are the
    coefficient vectors over F_p times the basis; int64 throughout, so
    p^n D^n must stay below 2^63."""
    d = len(basis)
    coefficients = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64).reshape(p**d, d)
    elements = coefficients @ np.array(basis, dtype=np.int64).reshape(d, n) % p
    return numerators[:, elements].prod(axis=2).sum(axis=1).tolist()


def odlyzko_violations(p: int, n_max: int, max_den: int, tighten: int = 0) -> List[dict]:
    """Exhaustive check of P(X in H) <= (1-alpha)^(n - dim H + tighten).

    Every law of residue_distributions(p, max_den) is scaled to integer
    numerators W over D, with top its largest; then the bound reads
    D^n P(X in H) <= top^(n-d+tighten) D^(d-tighten), exactly in int64,
    for each subspace H of dimension d >= 1 and all laws at once.  tighten
    = 1 plants violations; the Fraction version below must find the same.
    """
    laws = residue_distributions(p, max_den)
    numerators, den = law_numerators(laws)
    if (p * den) ** n_max >= 2**63:
        raise ValueError("p^n D^n must stay below 2^63")
    tops = numerators.max(axis=1)
    violations = []
    for n in range(1, n_max + 1):
        for basis in iter_subspaces(p, n):
            d = len(basis)
            if d == 0:
                continue  # the bound is stated for dim >= 1
            bounds = (tops ** (n - d + tighten) * den ** (d - tighten)).tolist()
            masses = subspace_masses(p, basis, n, numerators)
            for weights, mass, bound in zip(laws, masses, bounds):
                if mass > bound:
                    violations.append({"p": p, "n": n, "basis": basis, "weights": weights})
    return violations


def odlyzko_violations_by_fractions(p: int, n_max: int, max_den: int, tighten: int = 0) -> List[dict]:
    """The same check in Fractions, one law and one subspace at a time, by
    subspace_mass; the independent check of odlyzko_violations."""
    violations = []
    dists = residue_distributions(p, max_den)
    for n in range(1, n_max + 1):
        for basis in iter_subspaces(p, n):
            d = len(basis)
            if d == 0:
                continue
            for weights in dists:
                mass = subspace_mass(p, basis, n, weights)
                if mass > max(weights) ** (n - d + tighten):
                    violations.append({"p": p, "n": n, "basis": basis, "weights": weights})
    return violations


def field_add(fld, a: int, b: int) -> int:
    """a + b in F_q = p^f: base-p digits added one by one mod p."""
    p, out, place = fld.p, 0, 1
    for _ in range(fld.f):
        out += (a % p + b % p) % p * place
        a, b, place = a // p, b // p, place * p
    return out


def field_mul(fld, a: int, b: int) -> int:
    """a * b in F_q = p^f: schoolbook product of the digit polynomials,
    reduced by the field's monic modulus from the top degree down."""
    p, f, mod = fld.p, fld.f, fld.modulus_poly
    da = [a // p**i % p for i in range(f)]
    db = [b // p**i % p for i in range(f)]
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for top in range(2 * f - 2, f - 1, -1):  # x^top = -sum_i mod[i] x^(top - f + i)
        c, prod[top] = prod[top], 0
        for i in range(f):
            prod[top - f + i] -= c * mod[i]
    return sum(c % p * p**i for i, c in enumerate(prod[:f]))


def dot_law_brute_force(fld, weights: Sequence[Fraction], w: Sequence[int]) -> Tuple[Fraction, ...]:
    """Exact law of sum_l xi_l * w_l for iid xi_l ~ weights, by enumerating
    every outcome in support^len(w) with the reference field arithmetic."""
    support = [t for t in range(fld.q) if weights[t]]
    law = [Fraction(0)] * fld.q
    for xs in itertools.product(support, repeat=len(w)):
        prob, s = Fraction(1), 0
        for x, wl in zip(xs, w):
            prob *= weights[x]
            s = field_add(fld, s, field_mul(fld, wl, x))
        law[s] += prob
    return tuple(law)


def fraction_free(rows, rhs=None):
    """(pivots, det, adj(A) @ B) for integer rows A (n x m) and an n x s
    integer matrix B (default: no columns), exactly, by fraction-free
    Gauss-Jordan elimination over numpy object rows.

    pivots are the greedy pivot columns of A over Q, so len(pivots) is its
    rational rank.  det is det A when A is square and 0 when it is singular
    or not square; adj(A) @ B is None unless A is square and nonsingular.

    Step k takes the first row at or below k with a nonzero entry in the
    next column and replaces every other row r_i of [A | B] by
    (a_kc r_i - a_ic r_k) divided by the previous pivot, which divides
    exactly (Bareiss 1968; Nakos, Turner, Williams 1997).  For a
    nonsingular square A, [A | B] ends as [d I | d A^-1 B] with
    d = det(P A) = +-det A for the row permutation P.
    """
    n = len(rows)
    a = np.array(rows, dtype=object).reshape(n, -1)
    cols = a.shape[1]
    b = np.zeros((n, 0), dtype=object) if rhs is None else np.array(rhs, dtype=object).reshape(n, -1)
    m = np.hstack([a, b])
    pivots, sign, prev = [], 1, 1
    for c in range(cols):
        k = len(pivots)
        if k == n:
            break
        nonzero = [i for i in range(k, n) if m[i, c] != 0]
        if not nonzero:
            continue
        if nonzero[0] != k:
            m[[k, nonzero[0]]] = m[[nonzero[0], k]]
            sign = -sign
        others = [i for i in range(n) if i != k]
        m[others] = (m[k, c] * m[others] - m[others, c : c + 1] * m[k]) // prev
        prev = m[k, c]
        pivots.append(c)
    if len(pivots) < n or n < cols:
        return pivots, 0, None
    return pivots, sign * prev, sign * m[:, cols:]

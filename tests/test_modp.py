import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latsurj import modp
from latsurj.exact_linalg import IntMatrix, cokernel
from latsurj.modp import (
    ColumnSpace,
    NonUnitPivot,
    int_array,
    det_solve,
    echelon,
    gf2_ranks,
    iter_subspaces,
    left_kernel_vector,
    pack_gf2,
    rank_mod_p,
    subspace_elements,
)

from latsurj.primes import crt_primes

from oracles import (
    fraction_free,
    law_numerators,
    odlyzko_violations,
    odlyzko_violations_by_fractions,
    residue_distributions,
    subspace_mass,
    subspace_mass_support_enumeration,
    subspace_masses,
)


def test_reduce_mod_examples():
    # echelon reduces its own input to [0, p) and leaves the caller's array alone
    a = np.array([[-1]])
    assert echelon(a, 5)[0].tolist() == [[4]] and a.tolist() == [[-1]]
    assert echelon([[2]], 2)[0].tolist() == [[0]]
    assert echelon([[7, 10], [3, 4]], 3)[0].tolist() == [[1, 1], [0, 1]]
    assert echelon([[2**70 + 3]], 5)[0].tolist() == [[(2**70 + 3) % 5]]


def test_column_space_modulus():
    with pytest.raises(ValueError):
        ColumnSpace(1, 2)
    assert ColumnSpace(6, 3).dimension == 0
    # a composite modulus: the rank modulo every prime factor at once, or a proper divisor
    rng = random.Random(4)
    for _ in range(200):
        p, q = rng.sample([2, 3, 5, 7, 2**31 - 1], 2)
        n = p * q * rng.choice([1, p])
        ambient, k = rng.randint(1, 5), rng.randint(1, 6)
        cols = [[rng.randint(-20, 20) for _ in range(ambient)] for _ in range(k)]
        split = rng.randint(0, k)
        try:
            space = ColumnSpace.from_columns(n, cols[:split], ambient).extend(np.array(cols).T[:, split:])
        except NonUnitPivot as error:
            assert 1 < error.divisor < n and n % error.divisor == 0
            continue
        a = np.array(cols).T
        assert space.dimension == rank_mod_p(a, p) == rank_mod_p(a, q)
        assert all(space.contains(c) for c in cols)


def test_rank_examples():
    assert rank_mod_p(np.eye(4, dtype=np.int64), 2) == 4
    assert rank_mod_p([[2]], 2) == 0
    assert rank_mod_p([[1, 2], [2, 4]], 5) == 1


def test_rank_bounds_and_rational_comparison():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        rational_rank = len(fraction_free(m.array.tolist())[0])
        for p in (2, 3, 5):
            r = rank_mod_p(m.array, p)
            assert r <= min(rows, cols)
            assert r <= rational_rank


def test_rank_big_prime_backend():
    p = (1 << 61) - 1  # Mersenne prime above the word-size cutoff
    assert rank_mod_p([[1, 2], [2, 4]], p) == 1
    assert rank_mod_p([[1, 0], [0, 1]], p) == 2
    assert echelon([[1, 2], [2, 4]], p)[0].dtype == object


# -- the elimination kernel at its edges -----------------------------------

# the largest int64 path, the smallest object path, and a 61-bit prime
EDGE_PRIMES = (2, 3, 2**31 - 1, 2**31 + 11, 2**61 - 1)
BIG_ENTRIES = (2**62, -(2**62), 2**62 + 1, 2**63 - 1, -(2**63), 2**63, 2**64 + 5, -(2**90) + 1)


@st.composite
def edge_matrices(draw):
    """(rows, p): small shapes, entries from tiny to beyond 2^63, and
    planted dependencies that hold only modulo p."""
    p = draw(st.sampled_from(EDGE_PRIMES))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.sampled_from(BIG_ENTRIES), st.integers(-(2**70), 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    shift = draw(st.sampled_from([0, 1, 2**62, -(2**64)]))
    plant = draw(st.sampled_from(["none", "row", "column"]))
    if plant == "row" and n >= 2:
        rows[-1] = [3 * x + p * shift for x in rows[0]]
    if plant == "column" and m >= 2:
        for row in rows:
            row[-1] = row[0] - 2 * row[1 % (m - 1)] + p * shift
    return rows, p


def _rank_by_smith(rows, p):
    structure = cokernel(IntMatrix.from_rows(rows))
    # the corank mod p is the free rank plus the invariant factors p divides
    return len(rows) - structure.free_rank - sum(1 for d in structure.invariant_factors if d % p == 0)


@given(edge_matrices(), st.booleans())
@example(([[2**62, 2**62 + 1], [2**63, -(2**63)]], 2**31 + 11), True)
@example(([[2**31 - 1, 0], [0, 2**31 - 1]], 2**31 - 1), False)
@example(([[1, 2, 3], [2, 4, 6]], 2**61 - 1), True)
@settings(max_examples=150, deadline=None)
def test_echelon_matches_independent_oracles(case, as_array):
    rows, p = case
    n, m = len(rows), len(rows[0])
    a = IntMatrix.from_rows(rows).array if as_array else rows
    e, pivots = echelon(a, p)

    assert e.dtype == (np.int64 if p < 2**31 else object)
    assert len(pivots) == _rank_by_smith(rows, p)
    # row echelon shape: row i starts at its pivot, rows past the rank are zero
    for i in range(n):
        lead = pivots[i] if i < len(pivots) else m
        assert not e[i, :lead].any() and (lead == m or e[i, lead] != 0)
    # greedy pivots: column j is a pivot iff it raises the rank of its prefix
    prefix_ranks = [0] + [_rank_by_smith([row[: j + 1] for row in rows], p) for j in range(m)]
    assert pivots == [j for j in range(m) if prefix_ranks[j + 1] > prefix_ranks[j]]
    if n == m and p < 2**31:
        assert det_solve([a], [p])[0].tolist() == [fraction_free(rows)[1] % p]

    w = left_kernel_vector(a, p)
    assert (w is None) == (len(pivots) == n)
    if w is not None:
        assert any(w) and all(0 <= v < p for v in w)
        assert all(sum(w[i] * rows[i][j] for i in range(n)) % p == 0 for j in range(m))


# -- non-integer input --------------------------------------------------------

NON_INTEGER_ARRAYS = [
    np.array([[0.5, 0], [0, 1.0]]),
    np.array([[1.0, 0], [0, 1.0]]),  # integral floats are floats too
    np.array([[1 + 0j, 0], [0, 1]]),
    np.array([["1", "0"], ["0", "1"]]),
    np.array([[0.5, 0], [0, 1]], dtype=object),
    np.array([[Fraction(1, 2), 0], [0, 2**70]], dtype=object),
    [[0.5, 0], [0, 1]],
    [[2**70, 0.5], [0, 1]],
]


@pytest.mark.parametrize("a", NON_INTEGER_ARRAYS, ids=range(len(NON_INTEGER_ARRAYS)))
def test_non_integer_entries_rejected(a):
    # floats used to pass through int_array and reduce as floats
    # (rank 1 for the first matrix mod 5)
    with pytest.raises(ValueError):
        int_array(a)
    for p in (2, 5, 2**61 - 1):
        with pytest.raises(ValueError):
            rank_mod_p(a, p)
        with pytest.raises(ValueError):
            echelon(a, p)
        with pytest.raises(ValueError):
            left_kernel_vector(a, p)
        with pytest.raises(ValueError):
            det_solve(np.array([a]), [p])
    with pytest.raises(ValueError):
        ColumnSpace(5, 2).extend(np.array(a)[0])
    with pytest.raises(ValueError):
        ColumnSpace.from_columns(5, np.array(a).T, 2)


def test_int_array_keeps_integers():
    assert int_array([[1, 2**63]]).dtype == object  # numpy alone reads float64
    assert int_array([[1, 2**63]]).tolist() == [[1, 2**63]]
    assert int_array(np.array([[True, False]])).dtype == np.int64
    assert int_array(np.array([3, 4], dtype=object)).dtype == np.int64
    assert int_array(np.array([2**64], dtype=object)).dtype == object
    assert int_array(np.array([2**63], dtype=np.uint64)).tolist() == [2**63]
    assert int_array(np.array([3], dtype=np.int32)).dtype == np.int64


# -- stacked determinants -----------------------------------------------------

CRT = tuple(crt_primes(6))
# the CRT primes, small primes and the largest prime det_solve takes
DET_PRIMES = CRT + (2, 3, 2**31 - 1)
EDGES = (0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63 - 1), -(2**63))
# entry laws, drawn from one seeded random.Random per matrix: Hypothesis
# draws one seed instead of up to 1600 entries
DET_ENTRIES = {
    "bits": lambda rng: rng.randint(0, 1),
    "small": lambda rng: rng.randint(-9, 9),
    "edge": lambda rng: rng.choice(EDGES),
    "word": lambda rng: rng.randint(-(2**63), 2**63 - 1),
    "beyond": lambda rng: rng.randint(-(2**70), 2**70),
}


@st.composite
def det_slices(draw):
    """(rows, p) pairs of one size n in 1..40: random matrices of one entry
    kind, rank-deficient ones, and ones whose det is a CRT prime q, so it
    vanishes modulo q only."""
    n = draw(st.integers(1, 40))
    # wide entries make the oracle slow; keep them to small n
    kinds = ["bits", "small"] + (["edge", "word", "beyond"] if n <= 12 else [])
    slices = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "deficient", "det_is_crt_prime"]))
        entry = DET_ENTRIES[draw(st.sampled_from(kinds))]
        rng = random.Random(draw(st.integers(0, 2**64)))
        rows = [[entry(rng) for _ in range(n)] for _ in range(n)]
        p = draw(st.sampled_from(DET_PRIMES))
        if kind == "deficient" and n >= 2:
            rows[-1] = [x - y for x, y in zip(rows[0], rows[1 % (n - 1)])]
        if kind == "det_is_crt_prime":
            # diag(q, 1, ..., 1) times an upper unitriangular matrix
            q = draw(st.sampled_from(CRT))
            rows = [[0] * i + [1] + row[i + 1 :] for i, row in enumerate(rows)]
            rows[0] = [q * x for x in rows[0]]
            p = draw(st.sampled_from([q, CRT[(CRT.index(q) + 1) % len(CRT)]]))
        slices.append((rows, p))
    return slices


@given(det_slices())
@example([([[2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1]], CRT[0])])
@example([([[1]], 2), ([[0]], 3)])
@example([([[CRT[0], 5], [0, 1]], CRT[0]), ([[CRT[0], 5], [0, 1]], CRT[1])])
@settings(max_examples=80, deadline=None)
def test_dets_match_bareiss(slices):
    # one stack mixes matrices and primes; slice t is reduced mod primes[t]
    stack = np.array([rows for rows, _ in slices], dtype=object)
    primes = [p for _, p in slices]
    expected = [fraction_free(rows)[1] % p for rows, p in slices]
    assert det_solve(stack, primes)[0].tolist() == expected
    assert det_solve(IntMatrix.from_rows(slices[0][0]).array[None], primes[:1])[0].tolist() == expected[:1]


@given(det_slices(), st.integers(0, 3), st.integers(0, 2**64))
@example([([[CRT[0], 5], [0, 1]], CRT[0]), ([[CRT[0], 5], [0, 1]], CRT[1])], 2, 0)
@example([([[2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1]], 2**31 - 1)], 1, 0)
@settings(max_examples=60, deadline=None)
def test_det_solve_matches_adjugate_oracle(slices, s, seed):
    # [A | B] per slice, B with entries up to 2^70; a slice whose det
    # vanishes mod its prime (singular, or det a CRT prime) solves to 0
    rng = random.Random(seed)
    n = len(slices[0][0])
    entries = [DET_ENTRIES[kind] for kind in ("small", "edge", "beyond")]
    stack, primes, expected_dets, expected = [], [], [], []
    for rows, p in slices:
        b = [[rng.choice(entries)(rng) for _ in range(s)] for _ in range(n)]
        _, d, adj_b = fraction_free(rows, b)
        stack.append([row + extra for row, extra in zip(rows, b)])
        primes.append(p)
        expected_dets.append(d % p)
        expected.append((adj_b % p).tolist() if d % p else [[0] * s for _ in range(n)])
    d, x = det_solve(np.array(stack, dtype=object), primes)
    assert d.tolist() == expected_dets
    assert x.shape == (len(slices), n, s) and x.tolist() == expected
    assert det_solve(np.array([rows for rows, _ in slices], dtype=object), primes)[0].tolist() == expected_dets


@given(det_slices(), st.integers(1, 3), st.integers(0, 2**64))
@example([([[CRT[0], 5], [0, 1]], CRT[0]), ([[CRT[0], 5], [0, 1]], CRT[1])], 2, 0)
@example([([[2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1]], 2**31 - 1)], 1, 0)
@example([([[1, 2], [2, 4]], CRT[0]), ([[1, 2], [3, 4]], CRT[0])], 3, 0)
@settings(max_examples=60, deadline=None)
def test_det_solve_first_row_matches_full_solve(slices, s, seed):
    # rows first_row.. of the solve, for first_row 0, n and one between, on
    # stacks with singular slices, dets a CRT prime and entries past 2^63
    rng = random.Random(seed)
    n = len(slices[0][0])
    entries = [DET_ENTRIES[kind] for kind in ("small", "edge", "beyond")]
    extra = [[[rng.choice(entries)(rng) for _ in range(s)] for _ in range(n)] for _ in slices]
    stack = np.array([[row + b for row, b in zip(rows, bs)] for (rows, _), bs in zip(slices, extra)], dtype=object)
    primes = [p for _, p in slices]
    d, x = det_solve(stack, primes)
    for first_row in sorted({0, rng.randint(0, n), n}):
        d_r, x_r = det_solve(stack, primes, first_row)
        assert d_r.dtype == d.dtype and d_r.tolist() == d.tolist()
        assert x_r.dtype == x.dtype and x_r.shape == (len(slices), n - first_row, s)
        assert x_r.tolist() == x[:, first_row:].tolist()
    for first_row in (-1, n + 1):
        with pytest.raises(ValueError):
            det_solve(stack, primes, first_row)


def _block_lower(sizes):
    """Unit lower triangular, with -1 below its diagonal blocks of the given
    sizes and 0 inside them."""
    group = np.repeat(np.arange(len(sizes)), sizes)
    return np.where(group[:, None] > group[None, :], -1, 0) + np.eye(len(group), dtype=np.int64)


def _worst_case_growth(sizes):
    """A matrix of det 1 whose elimination mod any p, in steps of the given
    sizes, pivots on identity blocks and subtracts a product (p - 1) (p - 1)
    from every later entry per column of each step.

    It is L L^T for L = _block_lower(sizes): each Schur complement again
    has I as its leading block and -1 elsewhere in its first rows and columns.
    """
    lower = _block_lower(sizes)
    return lower @ lower.T


def test_dets_lazy_reduction_worst_case(monkeypatch):
    p = CRT[0]
    lazy = modp._lazy_products(p)
    assert lazy == 8
    # six steps of two columns: rows 8 to 11 take 4 * 2 = L products before
    # the fifth step reduces them
    even = _worst_case_growth([2] * 6)
    assert fraction_free(even.tolist())[1] == 1
    residues = even % p
    assert (residues[:2, :2] == np.eye(2)).all()
    assert (residues[:2, 2:] == p - 1).all() and (residues[2:, :2] == p - 1).all()
    assert det_solve(np.stack([even, even]), [p, CRT[1]])[0].tolist() == [1, 1]
    # the second slice, I with rows 1 and 2 swapped, has a singular leading
    # block, so the first step takes one column: rows 9 to 11 then take
    # 1 + 4 * 2 = L + 1 products, which reduction before L prevents
    odd = _worst_case_growth([1] + [2] * 5 + [1])
    swap = np.eye(12, dtype=np.int64)[[0, 2, 1] + list(range(3, 12))]
    assert fraction_free(odd.tolist())[1] == 1
    assert det_solve(np.stack([odd, swap]), [p, CRT[1]])[0].tolist() == [1, CRT[1] - 1]
    # one more product between reductions passes 2^63 and wraps
    monkeypatch.setattr(modp, "_lazy_products", lambda q: lazy + 1)
    assert det_solve(np.stack([odd, swap]), [p, CRT[1]])[0].tolist()[0] != 1


def test_det_solve_lazy_reduction_worst_case(monkeypatch):
    # A = L^T for L = _block_lower(sizes) has no elimination to do;
    # B = A (-1, ..., -1)^T makes every unknown p - 1, so each
    # back-substitution step of two rows subtracts two products (p - 1)^2
    # from every sum above it
    p = CRT[0]
    lazy = modp._lazy_products(p)
    systems = []
    for sizes in ([2] * 6, [2] * 6 + [1]):
        upper = _block_lower(sizes).T
        systems.append(np.hstack([upper, -upper.sum(axis=1, keepdims=True)]))
    for a in systems:
        n = len(a)
        # six steps of two rows give rows 0 to 3 more than L products, and
        # with a last step of one row first, 1 + 4 * 2 = L + 1
        assert det_solve(np.stack([a, a]), [p, CRT[1]])[1].tolist() == [[[p - 1]] * n, [[CRT[1] - 1]] * n]
        # rows from 2 on alone: rows 2 and 3 still take as many
        assert det_solve(np.stack([a, a]), [p, CRT[1]], 2)[1].tolist() == [[[p - 1]] * (n - 2), [[CRT[1] - 1]] * (n - 2)]
    # one more product between reductions passes 2^63 and wraps
    monkeypatch.setattr(modp, "_lazy_products", lambda q: lazy + 1)
    a = systems[1]
    assert det_solve(a[None], [p])[1].tolist() != [[[p - 1]] * 13]
    assert det_solve(a[None], [p], 2)[1].tolist() != [[[p - 1]] * 11]


@pytest.mark.parametrize("p", [CRT[0], 2**31 - 1, 65537])
def test_echelon_lazy_reduction_worst_case(monkeypatch, p):
    lazy = modp._lazy_products(p)
    n = min(lazy + 4, 40)  # more than L + 1 columns of updates
    a = _worst_case_growth([1] * n)
    upper = np.triu(-np.ones((n, n), dtype=np.int64), 1) + np.eye(n, dtype=np.int64)
    e, pivots = echelon(a, p)
    assert pivots == list(range(n))
    assert e.tolist() == (upper % p).tolist()
    if lazy + 1 < n:
        # one more update between reductions passes 2^63 and wraps
        monkeypatch.setattr(modp, "_lazy_products", lambda q: lazy + 1)
        assert echelon(a, p)[0].tolist() != (upper % p).tolist()


def _oracle_solve(stack, primes, first_row):
    """det_solve's answer from the fraction-free oracle: det A mod p and rows
    first_row.. of adj(A) B mod p, zeros when p divides det A."""
    dets, rows = [], []
    for block, p in zip(stack.tolist(), primes):
        n, s = len(block), len(block[0]) - len(block)
        _, d, adj_b = fraction_free([r[:n] for r in block], [r[n:] for r in block])
        dets.append(d % p)
        rows.append((adj_b % p).tolist()[first_row:] if d % p else [[0] * s] * (n - first_row))
    return dets, rows


def _leading_minor(block):
    return int(block[0][0]) * int(block[1][1]) - int(block[0][1]) * int(block[1][0])


def _one_slice_singular(rng):
    # the same 7 x 9 block whose leading minor is CRT[0] mod CRT[0] and
    # CRT[1], and one whose leading minor is 0 beside one where it is 1
    a = rng.integers(-5, 6, size=(7, 9))
    a[:2, :2] = [[CRT[0], 3], [0, 1]]
    b = rng.integers(0, 2, size=(7, 9))
    b[:2, :2] = [[1, 1], [1, 1]]
    c = rng.integers(0, 2, size=(7, 9))
    c[:2, :2] = [[1, 1], [0, 1]]
    return np.stack([a, a, b, c]), [CRT[0], CRT[1], CRT[2], CRT[2]]


def _odd_first_rows(rng):
    # every first_row of 0..9 is tried, so a block would straddle rows 1, 3, 5, 7 and 9
    return rng.integers(-3, 4, size=(3, 9, 11)), list(CRT[:3])


def _zero_rows(rng):
    # row 0 zero, all zero, and nonsingular beside them
    a = rng.integers(0, 3, size=(3, 6, 8))
    a[0, 0] = 0
    a[1] = 0
    return a, list(CRT[:3])


@pytest.mark.parametrize("build", [_one_slice_singular, _odd_first_rows, _zero_rows])
def test_det_solve_block_steps_match_oracle(build):
    stack, primes = build(np.random.default_rng(11))
    minors = [_leading_minor(block) % p for block, p in zip(stack, primes)]
    if build is _one_slice_singular:
        assert minors[0] == minors[2] == 0 and minors[1] and minors[3]
    for first_row in range(stack.shape[1] + 1):
        d, x = det_solve(stack, primes, first_row)
        assert x.dtype == np.int64
        assert (d.tolist(), x.tolist()) == _oracle_solve(stack, primes, first_row)
        assert det_solve(stack[:, :, : stack.shape[1]], primes, first_row)[0].tolist() == d.tolist()


def test_det_solve_rejects_primes_past_a_word():
    # its int64 slices take primes below 2^31 only; echelon keeps the object path
    a = np.random.default_rng(11).integers(-(2**40), 2**40, size=(3, 8, 10))
    for primes in ([2**31 + 11, 2**61 - 1, 2**31 - 1], [2**31 - 1, CRT[0], 2**31]):
        with pytest.raises(ValueError, match=f"below 2\\^31, got {max(primes)}"):
            det_solve(a, primes)
    assert det_solve(a, [2**31 - 1, CRT[0], CRT[1]])[1].dtype == np.int64


def test_dets_shapes():
    d, x = det_solve(np.zeros((0, 3, 3), dtype=np.int64), [])
    assert d.tolist() == [] and x.shape == (0, 3, 0)
    d, x = det_solve(np.zeros((0, 3, 5), dtype=np.int64), [])
    assert d.shape == (0,) and x.shape == (0, 3, 2)
    with pytest.raises(ValueError):
        det_solve(np.zeros((1, 3, 2), dtype=np.int64), [5])
    assert det_solve([[[7]]], [5])[0].tolist() == [2]
    with pytest.raises(ValueError):
        det_solve(np.zeros((2, 3, 3), dtype=np.int64), [5])
    with pytest.raises(ValueError):
        det_solve(np.zeros((3, 3), dtype=np.int64), [5, 7, 11])


# -- batched ranks -------------------------------------------------------


@st.composite
def gf2_stacks(draw):
    """(T, n, m) integer stacks; m of 64 and above spans several words, and
    a zero prefix forces the pivots into the last columns."""
    shape = (
        draw(st.integers(1, 4)),
        draw(st.sampled_from([1, 2, 3, 5, 9])),
        draw(st.sampled_from([1, 2, 7, 63, 64, 65, 130])),
    )
    kind = draw(st.sampled_from(["random", "zeros", "ones", "duplicate_rows", "zero_prefix"]))
    if kind == "zeros":
        return np.zeros(shape, dtype=np.int64)
    if kind == "ones":
        return np.ones(shape, dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(-3, 4, size=shape)
    if kind == "duplicate_rows":
        stack[:, -1] = stack[:, 0]
    if kind == "zero_prefix":
        stack[:, :, : max(shape[2] - shape[1], 0)] = 0
    return stack


def _identity_first(count, n, m, deficient=None):
    """count n x m {0, 1} matrices opening with I_n and all ones after it;
    trial `deficient` repeats its first row as its last."""
    stack = np.ones((count, n, m), dtype=np.int64)
    stack[:, :, :n] = np.eye(n, dtype=np.int64)
    if deficient is not None:
        stack[deficient, -1] = stack[deficient, 0]
    return stack


@given(gf2_stacks())
@example(np.ones((1, 1, 1), dtype=np.int64))
@example(np.zeros((2, 3, 65), dtype=np.int64))
@example(-np.ones((1, 4, 130), dtype=np.int64))
@example(np.tile(np.arange(-2, 3), (2, 3, 13)))
@example(_identity_first(3, 4, 40))  # every trial is done at column 4 of 40
@example(_identity_first(3, 4, 40, deficient=0))  # trial 0 stays at rank 3
@example(np.random.default_rng(7).integers(-3, 4, size=(1, 70, 140)))  # 70 rows, 3 words
@example(_identity_first(2, 63, 63, deficient=1))  # one-word rows: ranks 63 and 62
@example(_identity_first(2, 64, 64, deficient=1))  # every bit of the word: ranks 64 and 63
@example(np.random.default_rng(8).integers(0, 2, size=(1, 30, 50)))  # one trial
@example(np.random.default_rng(9).integers(0, 2, size=(3, 12, 40)) * (np.arange(12) % 3 != 0)[:, None])  # zero rows
@example(np.zeros((2, 5, 64), dtype=np.int64))
@example(np.random.default_rng(10).integers(0, 2, size=(2, 12, 20)) * np.array([0, 1])[:, None, None])  # one done at once
@settings(max_examples=120, deadline=None)
def test_gf2_ranks_match_rank_of_array(stack):
    # the bit-packed kernel against the generic one
    assert gf2_ranks(pack_gf2(stack), stack.shape[-1]).tolist() == [len(echelon(a, 2)[1]) for a in stack]


def _check_left_kernel_vector(a, n):
    """left_kernel_vector(a, n) is a w with w @ a = 0 mod n and a unit
    entry, None exactly at full row rank, or a proper divisor of n."""
    try:
        w = left_kernel_vector(a, n)
        pivots = echelon(a, n)[1]
    except NonUnitPivot as split:
        assert 1 < split.divisor < n and n % split.divisor == 0
        return None
    a = np.array(a, dtype=object)
    assert (w is None) == (len(pivots) == a.shape[0])
    if w is not None:
        assert len(w) == a.shape[0] and all(0 <= v < n for v in w)
        assert not (np.array(w, dtype=object) @ a % n).any()
        assert any(math.gcd(v, n) == 1 for v in w)
    return w


def test_kernel_vectors():
    assert _check_left_kernel_vector([[1, 2], [2, 4]], 5) is not None
    assert _check_left_kernel_vector(np.eye(3, dtype=np.int64), 7) is None
    assert _check_left_kernel_vector([[1, 2, 3]], 7) is None
    assert _check_left_kernel_vector([[0, 0]], 7) == (1,)
    assert _check_left_kernel_vector([[1], [2], [3]], 2**61 - 1) is not None  # object path
    # long elimination sums of products near 2^62 must not wrap in int64
    p = 2**31 - 1
    assert _check_left_kernel_vector(np.random.default_rng(3).integers(0, p, size=(13, 12)), p) is not None


def test_echelon_composite_modulus():
    # unit pivots: 1, then 5 - 3 * 2 = -1 = 9 (mod 10)
    e, pivots = echelon([[1, 2], [3, 5]], 10)
    assert pivots == [0, 1] and e.tolist() == [[1, 2], [0, 9]]
    # a first nonzero candidate that is a zero divisor splits the modulus
    for a, n, d in (([[2, 1], [1, 1]], 6, 2), ([[1, 2], [3, 4]], 6, 2), ([[0, 9], [0, 3]], 12, 3)):
        with pytest.raises(NonUnitPivot) as split:
            echelon(a, n)
        assert split.value.divisor == d
    with pytest.raises(NonUnitPivot):
        left_kernel_vector([[4, 0], [1, 1]], 2**70)  # object path
    assert _check_left_kernel_vector([[1, 2], [2, 4]], 15) is not None

    # either a proper divisor, or the rank modulo every prime factor at once
    rng = random.Random(11)
    for _ in range(300):
        p, q = rng.sample([2, 3, 5, 7, 2**31 - 1], 2)
        n = p * q * rng.choice([1, p])
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        a = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        try:
            pivots = echelon(a, n)[1]
        except NonUnitPivot as split:
            assert 1 < split.divisor < n and n % split.divisor == 0
            continue
        assert len(pivots) == rank_mod_p(a, p) == rank_mod_p(a, q)
        _check_left_kernel_vector(a, n)


# -- column spaces ---------------------------------------------------------


def test_membership_examples():
    s = ColumnSpace.from_columns(5, [(1, 0, 0)], 3)
    assert s.contains((0, 0, 0))
    assert not s.contains((0, 1, 0))
    s2 = ColumnSpace.from_columns(3, [(1, 1), (0, 1)], 2)
    assert s2.contains((2, 0))


def test_membership_dimension_mismatch():
    s = ColumnSpace.from_columns(3, [(1, 0)], 2)
    with pytest.raises(ValueError):
        s.contains((1, 0, 0))


def test_extend_examples():
    empty = ColumnSpace(2, 3)
    assert empty.dimension == 0
    s = empty.extend((1, 0, 0))
    assert s.dimension == 1
    unchanged = s.extend((0, 0, 0))
    assert unchanged.dimension == 1
    s2 = ColumnSpace.from_columns(2, [(1, 1)], 2)
    assert s2.extend((0, 1)).dimension == 2


def test_extend_is_persistent_and_idempotent():
    s = ColumnSpace.from_columns(7, [(1, 2, 3)], 3)
    s2 = s.extend((4, 5, 6))
    assert s.dimension == 1 and s2.dimension == 2
    # vectors already inside never change the value
    assert not s.contains((4, 5, 6)) and s2.contains((4, 5, 6))
    again = s2.extend((1, 2, 3)).extend((4, 5, 6)).extend(np.array([[1, 4], [2, 5], [3, 6]]))
    assert again is s2
    assert s.extend((0, 0, 0)) is s


@given(st.integers(0, 1000), st.sampled_from([2, 3, 5]), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_extend_matches_rank(seed, p, n):
    rng = random.Random(seed)
    cols = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n + 2)]
    space = ColumnSpace.from_columns(p, cols, n)
    assert space.dimension == rank_mod_p(np.array(cols).T, p)
    for c in cols:
        assert space.contains(c)


def test_column_space_near_int64_limit_keeps_its_columns():
    # ambient * (p - 1)^2 passes 2^63 here, so products of residues summed
    # over the basis would wrap around in int64
    p = 2**31 - 1
    rng = np.random.default_rng(0)
    cols = rng.integers(-1, 2, size=(20, 30))
    space = ColumnSpace.from_columns(p, cols.tolist(), 30)
    assert all(space.contains(c) for c in cols.tolist())
    assert space.dimension == rank_mod_p(cols.T, p) == 20


def test_big_prime_column_space():
    p = (1 << 89) - 1
    s = ColumnSpace.from_columns(p, [(1, 2, 3), (4, 5, 6)], 3)
    assert s.dimension == 2
    assert s.contains((5, 7, 9))
    assert not s.contains((0, 0, 1))
    assert s.extend((0, 0, 1)).dimension == 3


# -- subspace enumeration -----------------------------------------------------


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_subspace_counts_match_gaussian_binomials(p, n):
    counts = {}
    seen = set()
    for basis in iter_subspaces(p, n):
        counts[len(basis)] = counts.get(len(basis), 0) + 1
        elems = frozenset(subspace_elements(p, basis, n))
        assert len(elems) == p ** len(basis)
        assert elems not in seen  # each subspace exactly once
        seen.add(elems)
    for d, c in counts.items():
        assert c == gaussian_binomial(n, d, p)


# -- exact Odlyzko bound -----------------------------------------------------


def test_subspace_mass_routes_agree():
    weights = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    for basis in iter_subspaces(3, 3):
        a = subspace_mass(3, basis, 3, weights)
        b = subspace_mass_support_enumeration(3, basis, 3, weights)
        assert a == b


def test_odlyzko_bound_small_exhaustive():
    # acceptance covers p in {2,3}, n <= 5; keep the unit test lighter
    assert odlyzko_violations(2, 4, 4) == []
    assert odlyzko_violations(3, 3, 4) == []
    assert odlyzko_violations_by_fractions(2, 3, 4) == []


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_integer_subspace_masses_match_fractions(p, n):
    # every (H, law) mass of the integer oracle, against both Fraction routes
    laws = residue_distributions(p, 4)
    numerators, den = law_numerators(laws)
    for basis in iter_subspaces(p, n):
        for law, mass in zip(laws, subspace_masses(p, basis, n, numerators)):
            expected = subspace_mass(p, basis, n, law)
            assert mass == expected * den**n
            if n <= 2:
                assert expected == subspace_mass_support_enumeration(p, basis, n, law)


@pytest.mark.parametrize("p, n_max, max_den", [(2, 3, 4), (3, 2, 3)])
def test_planted_odlyzko_violations_agree(p, n_max, max_den):
    # with the exponent tightened to n - d + 1 the bound fails for some
    # (H, law), and both oracles must report the same ones in the same order
    planted = odlyzko_violations(p, n_max, max_den, tighten=1)
    assert planted and planted == odlyzko_violations_by_fractions(p, n_max, max_den, tighten=1)


def test_residue_distribution_family_size():
    # p = 2, denominators <= 4: distinct reduced weight vectors
    dists = residue_distributions(2, 4)
    assert (Fraction(1, 2), Fraction(1, 2)) in dists
    assert len(dists) == len(set(dists))

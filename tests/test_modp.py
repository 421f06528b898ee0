import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latsurj import modp
from latsurj.exact_linalg import IntMatrix, bareiss, cokernel_p_part, det_bareiss
from latsurj.modp import (
    ColumnSpace,
    NonUnitPivot,
    int_array,
    det_solve,
    dets,
    echelon,
    iter_subspaces,
    kernel_vector,
    left_kernel_vector,
    rank_mod_p,
    ranks_mod_p,
    subspace_elements,
)

from latsurj.primes import crt_primes

from oracles import (
    det_and_adjugate_product,
    det_fraction_free,
    odlyzko_violations,
    residue_distributions,
    subspace_mass,
    subspace_mass_support_enumeration,
)


def test_reduce_mod_examples():
    # echelon reduces its own input to [0, p) and leaves the caller's array alone
    a = np.array([[-1]])
    assert echelon(a, 5)[0].tolist() == [[4]] and a.tolist() == [[-1]]
    assert echelon([[2]], 2)[0].tolist() == [[0]]
    assert echelon([[7, 10], [3, 4]], 3)[0].tolist() == [[1, 1], [0, 1]]
    assert echelon([[2**70 + 3]], 5)[0].tolist() == [[(2**70 + 3) % 5]]


def test_reduce_mod_rejects_composite():
    with pytest.raises(ValueError):
        ColumnSpace(4, 2)


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
        rational_rank = len(bareiss(m)[0])
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
    m = IntMatrix.from_rows(rows)
    return m.rows - cokernel_p_part(m, p).corank_mod_p


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
    if n == m:
        assert dets([a], [p]).tolist() == [det_bareiss(IntMatrix.from_rows(rows)) % p]

    x = kernel_vector(a, p)
    assert (x is None) == (len(pivots) == m)
    if x is not None:
        assert any(x) and all(0 <= v < p for v in x)
        assert all(sum(r * v for r, v in zip(row, x)) % p == 0 for row in rows)
    w = left_kernel_vector(a, p)
    assert (w is None) == (len(pivots) == n)
    if w is not None:
        assert any(w)
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
            kernel_vector(a, p)
        with pytest.raises(ValueError):
            left_kernel_vector(a, p)
        with pytest.raises(ValueError):
            ranks_mod_p(np.array([a, a]), p)
        with pytest.raises(ValueError):
            dets(np.array([a]), [p])
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
# the CRT primes, small primes, the largest int64 prime and the object path
DET_PRIMES = CRT + (2, 3, 2**31 - 1, 2**61 - 1)
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
    expected = [det_fraction_free(rows) % p for rows, p in slices]
    assert dets(stack, primes).tolist() == expected
    assert dets(IntMatrix.from_rows(slices[0][0]).array[None], primes[:1]).tolist() == expected[:1]


@given(det_slices(), st.integers(0, 3), st.integers(0, 2**64))
@example([([[CRT[0], 5], [0, 1]], CRT[0]), ([[CRT[0], 5], [0, 1]], CRT[1])], 2, 0)
@example([([[2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1]], 2**61 - 1)], 1, 0)
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
        d, adj_b = det_and_adjugate_product(rows, b)
        stack.append([row + extra for row, extra in zip(rows, b)])
        primes.append(p)
        expected_dets.append(d % p)
        expected.append((adj_b % p).tolist() if d % p else [[0] * s for _ in range(n)])
    d, x = det_solve(np.array(stack, dtype=object), primes)
    assert d.tolist() == expected_dets
    assert x.shape == (len(slices), n, s) and x.tolist() == expected
    assert dets(np.array([rows for rows, _ in slices], dtype=object), primes).tolist() == expected_dets


def _worst_case_growth(n):
    """An n x n matrix of det 1 whose elimination mod any p pivots on 1 in
    every column and multiplies residues p - 1 by p - 1 in every update.

    It is L U with L unit lower triangular holding -1 below the diagonal and
    U unit upper triangular holding -1 above it: each Schur complement again
    has 1 on its diagonal corner and -1 elsewhere in its first row and column.
    """
    lower = np.tril(-np.ones((n, n), dtype=np.int64), -1) + np.eye(n, dtype=np.int64)
    return lower @ lower.T


def test_dets_lazy_reduction_worst_case(monkeypatch):
    p = CRT[0]
    lazy = modp._lazy_columns(p)
    assert lazy == 8
    a = _worst_case_growth(lazy + 4)  # more than L + 1 columns of updates
    assert det_bareiss(IntMatrix.from_array(a)) == 1
    residues = a % p
    assert (residues[0, 1:] == p - 1).all() and (residues[1:, 0] == p - 1).all()
    assert dets(np.stack([a, a]), [p, CRT[1]]).tolist() == [1, 1]
    # one more column between reductions passes 2^63 and wraps
    monkeypatch.setattr(modp, "_lazy_columns", lambda q: lazy + 1)
    assert dets(a[None], [p]).tolist() != [1]


def test_det_solve_lazy_reduction_worst_case(monkeypatch):
    # A = U, unit upper triangular with -1 above the diagonal, has no
    # elimination to do; B = U (-1, ..., -1)^T makes every unknown p - 1,
    # so each back-substitution step subtracts (p - 1)^2 from every sum
    p = CRT[0]
    lazy = modp._lazy_columns(p)
    n = lazy + 4  # more than L + 1 rows of updates
    upper = np.triu(-np.ones((n, n), dtype=np.int64), 1) + np.eye(n, dtype=np.int64)
    a = np.hstack([upper, -upper.sum(axis=1, keepdims=True)])
    assert det_solve(np.stack([a, a]), [p, CRT[1]])[1].tolist() == [[[p - 1]] * n, [[CRT[1] - 1]] * n]
    # one more row between reductions passes 2^63 and wraps
    monkeypatch.setattr(modp, "_lazy_columns", lambda q: lazy + 1)
    assert det_solve(a[None], [p])[1].tolist() != [[[p - 1]] * n]


@pytest.mark.parametrize("p", [CRT[0], 2**31 - 1, 65537])
def test_echelon_lazy_reduction_worst_case(monkeypatch, p):
    lazy = modp._lazy_columns(p)
    n = min(lazy + 4, 40)  # more than L + 1 columns of updates
    a = _worst_case_growth(n)
    upper = np.triu(-np.ones((n, n), dtype=np.int64), 1) + np.eye(n, dtype=np.int64)
    # a free last column whose kernel vector is -1 at every pivot, so the
    # back-substitution also adds (p - 1)^2 to every sum in every step
    a = np.hstack([a, upper.T @ upper.sum(axis=1, keepdims=True)])
    e, pivots = echelon(a, p)
    assert pivots == list(range(n))
    assert e[:, :n].tolist() == (upper % p).tolist()
    assert modp.kernel_basis(a, p).tolist() == [[p - 1] * n + [1]]
    if lazy + 1 < n:
        # one more update between reductions passes 2^63 and wraps
        monkeypatch.setattr(modp, "_lazy_columns", lambda q: lazy + 1)
        assert echelon(a, p)[0][:, :n].tolist() != (upper % p).tolist()


def test_dets_shapes():
    assert dets(np.zeros((0, 3, 3), dtype=np.int64), []).tolist() == []
    d, x = det_solve(np.zeros((0, 3, 5), dtype=np.int64), [])
    assert d.shape == (0,) and x.shape == (0, 3, 2)
    with pytest.raises(ValueError):
        det_solve(np.zeros((1, 3, 2), dtype=np.int64), [5])
    assert dets([[[7]]], [5]).tolist() == [2]
    with pytest.raises(ValueError):
        dets(np.zeros((2, 3, 3), dtype=np.int64), [5])
    with pytest.raises(ValueError):
        dets(np.zeros((1, 2, 3), dtype=np.int64), [5])
    with pytest.raises(ValueError):
        dets(np.zeros((3, 3), dtype=np.int64), [5, 7, 11])


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


@given(gf2_stacks())
@example(np.ones((1, 1, 1), dtype=np.int64))
@example(np.zeros((2, 3, 65), dtype=np.int64))
@example(-np.ones((1, 4, 130), dtype=np.int64))
@example(np.tile(np.arange(-2, 3), (2, 3, 13)))
@settings(max_examples=120, deadline=None)
def test_gf2_ranks_match_rank_of_array(stack):
    # the bit-packed kernel against the generic one
    assert ranks_mod_p(stack, 2).tolist() == [len(echelon(a, 2)[1]) for a in stack]


def test_ranks_mod_p_other_primes():
    stack = np.random.default_rng(5).integers(-4, 5, size=(6, 4, 7))
    stack[0, 1] = 2 * stack[0, 0]
    assert ranks_mod_p(stack, 3).tolist() == [rank_mod_p(a, 3) for a in stack]
    p = (1 << 61) - 1
    expected = [rank_mod_p(a.astype(object), p) for a in stack]
    assert ranks_mod_p(stack, p).tolist() == expected


def test_kernel_vectors():
    m = [[1, 2], [2, 4]]
    v = kernel_vector(m, 5)
    assert v is not None and any(v)
    assert (v[0] * 1 + v[1] * 2) % 5 == 0
    assert kernel_vector(np.eye(3, dtype=np.int64), 7) is None
    w = left_kernel_vector(m, 5)
    assert w is not None
    assert all(sum(wi * m[i][j] for i, wi in enumerate(w)) % 5 == 0 for j in range(2))
    # long back-substitution sums of products near 2^62 must not wrap in int64
    p = 2**31 - 1
    a = np.random.default_rng(3).integers(0, p, size=(12, 13))
    x = kernel_vector(a, p)
    assert any(x) and not (a.astype(object) @ np.array(x, dtype=object) % p).any()


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
        kernel_vector([[4, 1], [0, 1]], 2**70)  # object path
    assert kernel_vector([[1, 2], [2, 4]], 15) == (13, 1)
    assert left_kernel_vector([[1, 2], [2, 4]], 15) == (13, 1)

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
        x = kernel_vector(a, n)
        assert (x is None) == (len(pivots) == cols)
        if x is not None:
            assert x[next(j for j in range(cols) if j not in pivots)] == 1
            assert not (np.array(a, dtype=object) @ np.array(x, dtype=object) % n).any()


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


def test_residue_distribution_family_size():
    # p = 2, denominators <= 4: distinct reduced weight vectors
    dists = residue_distributions(2, 4)
    assert (Fraction(1, 2), Fraction(1, 2)) in dists
    assert len(dists) == len(set(dists))

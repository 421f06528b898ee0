import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latsurj import exact_linalg
from latsurj.exact_linalg import (
    CokernelStructure,
    IntMatrix,
    adjugate_rows,
    cokernel,
    cokernel_p_part,
    det,
    det_bareiss,
    det_is_zero,
    det_mod_crt,
    dets_mod_crt,
    format_matrix,
    parse_matrix,
    smith_normal_form,
)
from latsurj.modp import dets, rank_mod_p
from latsurj.primes import crt_primes

from oracles import det_and_adjugate_product, det_permutation_expansion


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


# -- IntMatrix basics ---------------------------------------------------


def test_entry_count_validated():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))


def test_matrix_is_immutable_value():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m == IntMatrix(2, 2, (1, 2, 3, 4))
    assert hash(m) == hash(IntMatrix(2, 2, (1, 2, 3, 4)))
    with pytest.raises(AttributeError):
        m.rows = 3
    # shapes that broadcast against each other still differ
    assert IntMatrix(1, 2, (1, 1)) != IntMatrix(2, 1, (1, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntMatrix.from_rows([[1.5, 2], [3, 4.9]]),
        lambda: IntMatrix.from_rows([[1.0, 2], [3, 4]]),
        lambda: IntMatrix(1, 1, (1.5,)),
        lambda: IntMatrix(2, 2, ("1", "2", "3", "4")),
        lambda: IntMatrix(1, 2, (2**70, 0.5)),
        lambda: IntMatrix.from_array(np.array([[1.0, 2.0]])),
        lambda: IntMatrix.from_array(np.array([["1", "2"]])),
        lambda: IntMatrix.from_array(np.array([[1, None]], dtype=object)),
        lambda: parse_matrix("1 2\n1.5 2\n"),
    ],
)
def test_non_integer_entries_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_integer_entries_pick_int64_or_python_ints():
    # numpy alone would store -1 and 2^63 together as float64
    wide = IntMatrix(1, 2, (-1, 2**63))
    assert wide.array.dtype == object and wide.array.tolist() == [[-1, 2**63]]
    assert all(type(x) is int for x in wide.array.flat)
    assert IntMatrix.from_array(np.array([[2**63]], dtype=np.uint64)).array.dtype == object
    small = IntMatrix.from_array(np.array([[np.int64(1), 2]], dtype=object))
    assert small.array.dtype == np.int64 and small == IntMatrix(1, 2, (1, 2))
    mixed = IntMatrix(1, 2, (np.int64(-5), 2**70))
    assert [type(x) for x in mixed.array.flat] == [int, int]
    # the matrix owns its array: the caller's stays writable and apart
    source = np.array([[1, 2]])
    m = IntMatrix.from_array(source)
    source[0, 0] = 5
    assert m == IntMatrix(1, 2, (1, 2))


def test_text_format_round_trip():
    m = IntMatrix.from_rows([[1, -2, 3], [0, 5, -6]])
    assert parse_matrix(format_matrix(m)) == m
    assert format_matrix(m).splitlines()[0] == "2 3"


def test_parse_matrix_rejects_bad_counts():
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2 3\n")


# -- determinants -------------------------------------------------------


def test_det_identity():
    assert det(IntMatrix.identity(3)) == 1


def test_det_2x2_by_hand():
    assert det(IntMatrix.from_rows([[2, 1], [1, 1]])) == 1


def test_det_zero_row():
    m = IntMatrix.from_rows([[0, 0], [3, 4]])
    assert det(m) == 0
    assert det_is_zero(m)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_mod_crt_identity_and_zero():
    assert det_mod_crt(IntMatrix.identity(5)) == 1
    assert det_mod_crt(IntMatrix.from_rows([[0]])) == 0


def test_det_mod_crt_matches_bareiss_random_6x6():
    rng = random.Random(101)
    for _ in range(25):
        m = random_matrix(rng, 6, 6)
        assert det_mod_crt(m) == det_bareiss(m)


def test_det_agrees_with_permutation_expansion():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n)
        reference = det_permutation_expansion(m)
        assert det_bareiss(m) == reference
        assert det_mod_crt(m) == reference
        assert det_is_zero(m) == (reference == 0)
        assert det_is_zero(m.array) == (reference == 0)


def test_det_crt_with_entries_beyond_int64():
    rng = random.Random(17)
    for n in (2, 9):
        m = random_matrix(rng, n, n, -(2**64), 2**64)
        assert m.array.dtype == object
        assert det_mod_crt(m) == det_bareiss(m)
        assert not det_is_zero(m)
        rows = m.array.tolist()
        singular = IntMatrix.from_rows(rows[:-1] + [[2 * x for x in rows[0]]])
        assert det_is_zero(singular) and det_mod_crt(singular) == 0
        negative = IntMatrix(n, n, [-abs(x) for x in m.array.flat])
        assert det_mod_crt(negative) == det_bareiss(negative)


def test_det_is_zero_past_a_vanishing_residue():
    # det = q vanishes modulo the first CRT prime q but not modulo the next
    from latsurj.primes import crt_primes

    q = crt_primes(1)[0]
    m = IntMatrix.from_rows([[q, 1], [0, 1]])
    assert not det_is_zero(m) and not det_is_zero(m.array)
    assert det_mod_crt(m) == q


def test_det_large_matrix_crt_path():
    rng = random.Random(3)
    m = random_matrix(rng, 35, 35, -5, 5)
    d = det(m)
    # spot-check the value against a residue the CRT never used
    p = 999999937
    assert d % p == dets([m.array], [p])[0]


def test_det_is_zero_rejects_non_integers():
    # a float array used to reduce as floats and read as singular
    for a in (np.array([[0.5]]), np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.5]], dtype=object)):
        with pytest.raises(ValueError):
            det_is_zero(a)
        with pytest.raises(ValueError):
            dets_mod_crt([a])


def test_dets_mod_crt_batches_equal_sizes():
    rng = random.Random(29)
    mats = [random_matrix(rng, 9, 9, -(2**62), 2**62) for _ in range(3)]
    mats.append(random_matrix(rng, 9, 9, -(2**70), 2**70))
    singular = mats[0].array.tolist()
    singular[4] = singular[2]
    arrays = [m.array for m in mats] + [np.array(singular, dtype=object)]
    assert dets_mod_crt(arrays) == [det_bareiss(IntMatrix.from_array(a)) for a in arrays]
    assert dets_mod_crt([]) == []
    with pytest.raises(ValueError):
        dets_mod_crt([np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)])
    with pytest.raises(ValueError):
        dets_mod_crt([np.ones((2, 3), dtype=np.int64)])


def test_crt_primes_follow_the_row_norms():
    # a 50 x 50 {0, 1} minor of the certifier: its rows hold about 25 ones, so
    # prod ||r_i|| is near 2^116 and four primes below 2^30 pass twice it,
    # where the entrywise bound 50^25 > 2^141 took five
    a = np.random.default_rng(8).integers(0, 2, size=(50, 50))
    assert len(exact_linalg._crt_primes(a)) == 4
    assert len(exact_linalg._crt_primes(np.ones((50, 50), dtype=np.int64))) == 5


def _record_slices(monkeypatch, fake=None):
    """Replace the stacked kernel exact_linalg calls; returns the shapes
    of the stacks it receives."""
    shapes = []
    real = exact_linalg.dets

    def recording(stack, primes):
        shapes.append(np.shape(stack))
        assert len(primes) == shapes[-1][0]
        return fake(stack, primes) if fake else real(stack, primes)

    monkeypatch.setattr(exact_linalg, "dets", recording)
    return shapes


def test_det_is_zero_eliminates_one_slice_when_nonsingular(monkeypatch):
    shapes = _record_slices(monkeypatch)
    m = random_matrix(random.Random(5), 30, 30, 0, 1)
    assert det_bareiss(m) != 0
    assert not det_is_zero(m)
    assert [s[0] for s in shapes] == [1]
    # a singular matrix pays for its other primes in one more stack
    rows = m.array.tolist()
    rows[7] = rows[3]
    shapes.clear()
    assert det_is_zero(IntMatrix.from_rows(rows))
    primes = len(exact_linalg._crt_primes(np.array(rows)))
    assert [s[0] for s in shapes] == [1, primes - 1]


def test_det_mod_crt_stacks_stay_under_the_cap(monkeypatch):
    # criterion 8's shape: this 400 x 400 {0, 1} matrix needs 52 primes,
    # which come in stacks of at most 13 slices (16 MiB); the fake kernel
    # keeps the test fast
    shapes = _record_slices(monkeypatch, lambda stack, primes: np.zeros(len(primes), dtype=np.int64))
    a = np.random.default_rng(2).integers(0, 2, size=(400, 400))
    assert exact_linalg._STACK_BYTES == 1 << 24
    assert det_mod_crt(IntMatrix.from_array(a)) == 0
    assert sum(s[0] for s in shapes) == len(exact_linalg._crt_primes(a)) > 40
    assert len(shapes) > 1
    assert all(s[0] * 8 * 400 * 400 <= exact_linalg._STACK_BYTES for s in shapes)


@st.composite
def adjugate_cases(draw):
    """A square matrix: random with entries up to 2^70, singular (two
    equal rows), or R R^T for an R of det q, the first CRT prime, which
    then divides det twice."""
    n = draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2**64)))
    bound = draw(st.sampled_from([1, 9, 2**62, 2**70]))
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["random", "singular", "crt_prime"]))
    if kind == "singular" and n >= 2:
        rows[-1] = list(rows[0])
    if kind == "crt_prime":
        rows = [[0] * i + [1] + row[i + 1 :] for i, row in enumerate(rows)]
        rows[0] = [crt_primes(1)[0] * x for x in rows[0]]
        rows = (np.array(rows, dtype=object) @ np.array(rows, dtype=object).T).tolist()
    return rows


@given(adjugate_cases())
@example([[2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1]])
@example([[2, 0], [0, 3]])
@example([[crt_primes(1)[0], 5], [0, 1]])
@settings(max_examples=60, deadline=None)
def test_adjugate_rows_match_oracle(rows):
    n = len(rows)
    d, adj = det_and_adjugate_product(rows, np.eye(n, dtype=np.int64).tolist())
    got_det, got = adjugate_rows(np.array(rows, dtype=object))
    assert got_det == d and got.dtype == object
    if any(d % p == 0 for p in exact_linalg._crt_primes(np.array(rows, dtype=object).T)):
        assert got.shape == (0, n)
    else:
        assert got.tolist() == adj[max(n - exact_linalg.ADJUGATE_ROWS, 0) :].tolist()


def test_adjugate_rows_stacks_stay_under_the_cap(monkeypatch):
    a = np.random.default_rng(3).integers(-999, 1000, size=(12, 12))  # 5 CRT primes
    det_value, rows = adjugate_rows(a)
    assert rows.shape == (4, 12) and det_value == det_bareiss(IntMatrix.from_array(a))
    shapes = []
    solve = exact_linalg.det_solve
    monkeypatch.setattr(exact_linalg, "det_solve", lambda stack, primes: shapes.append(stack.shape) or solve(stack, primes))
    monkeypatch.setattr(exact_linalg, "_STACK_BYTES", 2 * 8 * 12 * 16)  # two slices of 12 x 16
    again = adjugate_rows(a)
    assert again[0] == det_value and again[1].tolist() == rows.tolist()
    assert len(shapes) > 1 and all(s[0] <= 2 for s in shapes)


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_row_swap_negates_det(n, data):
    rows = data.draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    m = IntMatrix.from_rows(rows)
    if n >= 2:
        swapped = list(rows)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert det_bareiss(IntMatrix.from_rows(swapped)) == -det_bareiss(m)
    assert abs(det_bareiss(IntMatrix.from_array(m.array.T))) == abs(det_bareiss(m))


def _classic_hadamard(n, k0):
    """k0^n * n^(n/2), rounded up: the bound for entries of size at most k0."""
    root = math.isqrt(n**n)
    return k0**n * (root if root * root == n**n else root + 1)


def test_hadamard_bound_dominates_dets_at_unit_entries():
    from latsurj.exact_linalg import _det_bound

    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, -1, 1)
        assert abs(det_bareiss(m)) <= _det_bound(m.array) <= _classic_hadamard(n, 1)
    # equality at a Hadamard matrix, and at the all-ones row of width n
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    assert _det_bound(h) == abs(det_bareiss(IntMatrix.from_array(h))) == 16
    assert _det_bound(np.ones((3, 3), dtype=np.int64)) == _classic_hadamard(3, 1)


def test_det_bound_dominates_dets_at_any_entries():
    from latsurj.exact_linalg import _det_bound

    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 5)
        k0 = rng.randint(1, 9)
        m = random_matrix(rng, n, n, -k0, k0)
        assert abs(det_bareiss(m)) <= _det_bound(m.array) <= _classic_hadamard(n, k0)
    # exact in Python ints where the squared row norms pass 2^63
    edge = np.array([[-(2**63), 2**63 - 1], [2**63 - 1, -(2**63)]], dtype=np.int64)
    assert _det_bound(edge) == 2**126 + (2**63 - 1) ** 2
    assert abs(det_bareiss(IntMatrix.from_array(edge))) <= _det_bound(edge)


# -- Smith normal form ---------------------------------------------------


def snf_invariants(m):
    dec = smith_normal_form(m)
    left = dec.left.array.astype(object)
    right = dec.right.array.astype(object)
    mat = m.array.astype(object)
    assert (left @ mat @ right == dec.diag.array).all()
    assert abs(det(dec.left)) == 1
    assert abs(det(dec.right)) == 1
    diag = dec.diagonal()
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # off-diagonal must vanish
    for i in range(dec.diag.rows):
        for j in range(dec.diag.cols):
            if i != j:
                assert dec.diag.array[i, j] == 0
    return dec


def test_snf_diag_2_3():
    dec = snf_invariants(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert dec.diagonal() == (1, 6)


def test_snf_identity():
    dec = snf_invariants(IntMatrix.identity(4))
    assert dec.diagonal() == (1, 1, 1, 1)


def test_snf_rectangular():
    dec = snf_invariants(IntMatrix.from_rows([[1, 0, 0], [0, 2, 0]]))
    assert dec.diagonal() == (1, 2)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_snf_invariants_random(rows, cols, data):
    body = data.draw(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    snf_invariants(IntMatrix.from_rows(body))


# -- cokernel -------------------------------------------------------------


def test_cokernel_identity_trivial():
    assert cokernel(IntMatrix.identity(3)).is_trivial


def test_cokernel_diag_2_3():
    structure = cokernel(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert structure.invariant_factors == (6,)
    assert structure.free_rank == 0
    assert structure.order() == 6


def test_cokernel_rectangular():
    structure = cokernel(IntMatrix.from_rows([[1, 0, 0], [0, 2, 0]]))
    assert structure.invariant_factors == (2,)
    assert structure.free_rank == 0


def test_cokernel_free_rank():
    structure = cokernel(IntMatrix.from_rows([[1, 0], [0, 0]]))
    assert structure.free_rank == 1


def test_cokernel_trivial_iff_unit_diagonal():
    rng = random.Random(23)
    for _ in range(80):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, rows + 2)
        m = random_matrix(rng, rows, cols, -4, 4)
        diag = smith_normal_form(m).diagonal()
        expected = sum(1 for d in diag if d == 1) == rows
        assert cokernel(m).is_trivial == expected


def test_cokernel_structure_validation():
    with pytest.raises(ValueError):
        CokernelStructure((3, 2), 0)  # not a divisibility chain
    with pytest.raises(ValueError):
        CokernelStructure((1,), 0)  # ones are dropped, never stored


# -- p-parts ---------------------------------------------------------------


def test_p_part_examples():
    assert cokernel_p_part(IntMatrix.from_rows([[2, 0], [0, 3]]), 2).exponents == (1,)
    assert cokernel_p_part(IntMatrix.identity(3), 5).exponents == ()
    part = cokernel_p_part(IntMatrix.from_rows([[4, 0], [0, 8]]), 2)
    assert part.exponents == (2, 3)


def test_p_part_rejects_composite():
    with pytest.raises(ValueError):
        cokernel_p_part(IntMatrix.identity(2), 6)


def test_p_part_corank_matches_modp_elimination():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = random_matrix(rng, n, cols, -9, 9)
        for p in (2, 3, 5, 7):
            part = cokernel_p_part(m, p)
            corank = n - rank_mod_p(m.array, p)
            assert part.corank_mod_p == corank

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latsurj.exact_linalg import IntMatrix
from latsurj.modp import (
    ColumnSpace,
    ModMatrix,
    has_sparse_annihilator,
    iter_subspaces,
    kernel_vector,
    left_kernel_vector,
    rank_mod_p,
    rank_of_array,
    ranks_mod_p,
    reduce_mod,
    subspace_elements,
)

from oracles import (
    odlyzko_violations,
    residue_distributions,
    subspace_mass,
    subspace_mass_support_enumeration,
)


def test_reduce_mod_examples():
    assert reduce_mod(IntMatrix.from_rows([[2]]), 2).entries == (0,)
    assert reduce_mod(IntMatrix.from_rows([[-1]]), 5).entries == (4,)
    m = reduce_mod(IntMatrix.from_rows([[7, 10], [3, 4]]), 3)
    assert m.row(0) == (1, 1) and m.row(1) == (0, 1)


def test_reduce_mod_rejects_composite():
    with pytest.raises(ValueError):
        reduce_mod(IntMatrix.identity(2), 4)


def test_rank_examples():
    assert rank_mod_p(reduce_mod(IntMatrix.identity(4), 2)) == 4
    assert rank_mod_p(reduce_mod(IntMatrix.from_rows([[2]]), 2)) == 0
    assert rank_mod_p(reduce_mod(IntMatrix.from_rows([[1, 2], [2, 4]]), 5)) == 1


def test_rank_bounds_and_rational_comparison():
    rng = random.Random(5)
    from latsurj.certifier import _pivot_columns_exact

    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        _, rational_rank = _pivot_columns_exact(m)
        for p in (2, 3, 5):
            r = rank_mod_p(reduce_mod(m, p))
            assert r <= min(rows, cols)
            assert r <= rational_rank


def test_rank_big_prime_backend():
    p = (1 << 61) - 1  # Mersenne prime above the word-size cutoff
    m = ModMatrix(p, 2, 2, (1, 2, 2, 4))
    assert rank_mod_p(m) == 1
    m = ModMatrix(p, 2, 2, (1, 0, 0, 1))
    assert rank_mod_p(m) == 2


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
    assert ranks_mod_p(stack, 2).tolist() == [rank_of_array(a, 2) for a in stack]


def test_ranks_mod_p_other_primes():
    stack = np.random.default_rng(5).integers(-4, 5, size=(6, 4, 7))
    stack[0, 1] = 2 * stack[0, 0]
    assert ranks_mod_p(stack, 3).tolist() == [rank_of_array(a, 3) for a in stack]
    p = (1 << 61) - 1
    expected = [rank_mod_p(ModMatrix(p, 4, 7, tuple(int(x) % p for x in a.ravel()))) for a in stack]
    assert ranks_mod_p(stack, p).tolist() == expected


def test_kernel_vectors():
    m = reduce_mod(IntMatrix.from_rows([[1, 2], [2, 4]]), 5)
    v = kernel_vector(m)
    assert v is not None and any(v)
    assert (v[0] * 1 + v[1] * 2) % 5 == 0
    assert kernel_vector(reduce_mod(IntMatrix.identity(3), 7)) is None
    w = left_kernel_vector(m)
    assert w is not None
    assert all(sum(wi * m.at(i, j) for i, wi in enumerate(w)) % 5 == 0 for j in range(2))


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
    again = s2.extend((1, 2, 3)).extend((4, 5, 6))
    assert again.dimension == 2
    assert again.pivots == s2.pivots
    assert again.basis_rows() == s2.basis_rows()


@given(st.integers(0, 1000), st.sampled_from([2, 3, 5]), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_extend_matches_rank(seed, p, n):
    rng = random.Random(seed)
    cols = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n + 2)]
    space = ColumnSpace.from_columns(p, cols, n)
    m = IntMatrix.from_rows([[c[i] for c in cols] for i in range(n)])
    assert space.dimension == rank_mod_p(reduce_mod(m, p))
    for c in cols:
        assert space.contains(c)


def test_big_prime_column_space():
    p = (1 << 89) - 1
    s = ColumnSpace.from_columns(p, [(1, 2, 3), (4, 5, 6)], 3)
    assert s.dimension == 2
    assert s.contains((5, 7, 9))
    assert not s.contains((0, 0, 1))
    assert s.extend((0, 0, 1)).dimension == 3


# -- sparse annihilators -----------------------------------------------------


def test_sparse_annihilator_identity_none():
    m = reduce_mod(IntMatrix.identity(4), 2)
    assert has_sparse_annihilator(m, Fraction(3, 4)) is None


def test_sparse_annihilator_zero_row():
    m = reduce_mod(IntMatrix.from_rows([[1, 1], [0, 0], [1, 0]]), 3)
    w = has_sparse_annihilator(m, Fraction(1, 3))
    assert w == (0, 1, 0)


def test_sparse_annihilator_derived_example():
    m = reduce_mod(IntMatrix.from_rows([[1, 1], [1, 1], [0, 1]]), 2)
    w = has_sparse_annihilator(m, Fraction(2, 3))
    assert w == (1, 1, 0)
    # the witness really annihilates all columns
    for j in range(m.cols):
        assert sum(wi * m.at(i, j) for i, wi in enumerate(w)) % 2 == 0


def test_sparse_annihilator_row_limit():
    m = reduce_mod(IntMatrix.identity(30), 2)
    with pytest.raises(ValueError):
        has_sparse_annihilator(m, Fraction(1, 2))


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

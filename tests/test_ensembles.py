import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsurj.ensembles import (
    Distribution,
    EnsembleSpec,
    alpha_min,
    alpha_mod_p,
    derive_seed,
    parse_distribution,
    sample_array,
    sample_matrix,
    sparse_bernoulli,
)

from oracles import alpha_min_brute_force

U01 = Distribution.uniform([0, 1])


# small strategy: random rational distributions on values in [-5, 5]
@st.composite
def distributions(draw):
    values = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4, unique=True))
    numers = draw(
        st.lists(st.integers(1, 6), min_size=len(values), max_size=len(values))
    )
    total = sum(numers)
    return Distribution(tuple((v, Fraction(c, total)) for v, c in zip(values, numers)))


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(((0, Fraction(1, 2)), (0, Fraction(1, 2))))  # duplicate value
    with pytest.raises(ValueError):
        Distribution(((0, Fraction(1, 2)),))  # does not sum to 1
    with pytest.raises(ValueError):
        Distribution(((0, Fraction(3, 2)), (1, Fraction(-1, 2))))


def test_alpha_mod_p_examples():
    assert alpha_mod_p(U01, 2) == Fraction(1, 2)
    point = Distribution(((0, Fraction(1)),))
    assert alpha_mod_p(point, 2) == 0
    assert alpha_mod_p(point, 7) == 0
    assert alpha_mod_p(Distribution.uniform([-1, 0, 1]), 3) == Fraction(2, 3)


def test_alpha_min_examples():
    assert alpha_min(U01) == Fraction(1, 2)
    assert alpha_min(Distribution.uniform([0, 2])) == 0  # p=2 merges both atoms
    assert alpha_min(Distribution.uniform([0, 1, 2, 3])) == Fraction(1, 2)
    assert alpha_min(Distribution(((5, Fraction(1)),))) == 0  # degenerate


@given(distributions())
@settings(max_examples=50, deadline=None)
def test_alpha_min_is_global_minimum(dist):
    assert alpha_min(dist) == alpha_min_brute_force(dist.atoms)


def test_alpha_min_without_factoring():
    # differences B, A*B and (A - 1)*B of two Mersenne primes: B merges all
    # three atoms, and no trial division reaches A or B
    a, b = 2**127 - 1, 2**89 - 1
    assert alpha_min(Distribution.uniform([0, b, a * b])) == 0
    # 0 and A*B merge modulo A and modulo B only, 0 and 2 modulo 2, and
    # A*B and 2 modulo the primes of A*B - 2
    law = Distribution(((0, Fraction(1, 2)), (a * b, Fraction(1, 3)), (2, Fraction(1, 6))))
    assert alpha_min(law) == Fraction(1, 6)


def test_alpha_mod_p_large_prime_equals_single_weight_bound():
    dist = Distribution(((0, Fraction(2, 5)), (3, Fraction(2, 5)), (7, Fraction(1, 5))))
    for p in (11, 13, 101):  # beyond the support diameter
        assert alpha_mod_p(dist, p) == 1 - dist.max_weight


def test_sparse_bernoulli():
    assert sparse_bernoulli(Fraction(1, 2)) == U01
    d = sparse_bernoulli(Fraction(1, 10))
    assert d.atoms == ((0, Fraction(9, 10)), (1, Fraction(1, 10)))
    assert alpha_mod_p(d, 2) == Fraction(1, 10)
    with pytest.raises(ValueError):
        sparse_bernoulli(Fraction(0))
    with pytest.raises(ValueError):
        sparse_bernoulli(Fraction(3, 2))


# -- literals ---------------------------------------------------------------


def test_parse_distribution_forms():
    assert parse_distribution("uniform01") == U01
    assert parse_distribution("uniform-1,0,1") == Distribution.uniform([-1, 0, 1])
    assert parse_distribution("bernoulli(1/10)") == sparse_bernoulli(Fraction(1, 10))
    assert parse_distribution("0:9/10,1:1/10") == sparse_bernoulli(Fraction(1, 10))
    with pytest.raises(ValueError):
        parse_distribution("nonsense")


def test_literal_round_trip():
    d = parse_distribution("0:9/10,1:1/10")
    assert parse_distribution(d.literal()) == d


# -- sampling ----------------------------------------------------------------


def test_point_mass_sampling():
    spec = EnsembleSpec("iid_rect", 2, Distribution(((1, Fraction(1)),)), 9, m=2)
    assert sample_matrix(spec).array.tolist() == [[1, 1], [1, 1]]


def test_sampler_determinism():
    spec = EnsembleSpec("iid_rect", 3, U01, 42, m=3)
    assert sample_matrix(spec) == sample_matrix(spec)
    assert (sample_array(spec) == sample_array(spec)).all()


def test_symmetric_plus_structure():
    spec = EnsembleSpec("symmetric_plus", 5, U01, 7, u=3)
    a = sample_array(spec)
    assert a.shape == (5, 8)
    assert (a[:, :5] == a[:, :5].T).all()


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("iid_rect", 4, U01, 0, m=3)  # m < n
    with pytest.raises(ValueError):
        EnsembleSpec("symmetric_plus", 4, U01, 0, u=-1)
    with pytest.raises(ValueError):
        EnsembleSpec("other", 4, U01, 0)


def test_derive_seed_stability_and_spread():
    a = derive_seed(123, 0)
    assert a == derive_seed(123, 0)
    assert len({derive_seed(123, i) for i in range(100)}) == 100
    assert derive_seed(123, 1) != derive_seed(124, 1)


def test_empirical_frequencies_match_weights():
    dist = parse_distribution("0:9/10,1:1/10")
    spec = EnsembleSpec("iid_rect", 100, dist, 2024, m=1000)
    draws = sample_array(spec).ravel()
    n = draws.size
    assert n == 100_000
    for value, weight in dist.atoms:
        freq = float((draws == value).sum()) / n
        w = float(weight)
        se = (w * (1 - w) / n) ** 0.5
        assert abs(freq - w) <= 4 * se


def test_sampling_respects_negative_values():
    dist = Distribution.uniform([-1, 0, 1])
    spec = EnsembleSpec("iid_rect", 10, dist, 5, m=10)
    vals = set(sample_array(spec).ravel().tolist())
    assert vals <= {-1, 0, 1}


# sha256 prefixes of the little-endian int64 bytes of sample_array, computed
# with a binary search over the cumulative numerators for every denominator:
# the digit table must reproduce that stream, and any change of stream shows
SAMPLE_DIGESTS = [
    ("iid_rect", 30, "uniform01", 11, {"m": 31}, "1d7bc69f16dfc4a6"),
    ("iid_rect", 30, "bernoulli(1/10)", 12, {"m": 33}, "160baff1fc3b291b"),
    ("iid_rect", 30, "uniform-1,0,1", 13, {"m": 30}, "acfe29e850d284a2"),
    ("symmetric_plus", 25, "uniform-1,0,1", 14, {"u": 2}, "53e99045e26e8f81"),
    # denominator 2^16 + 1, just above the table limit
    ("iid_rect", 20, "-2:21845/65537,0:21846/65537,3:21846/65537", 15, {"m": 21}, "df617d0d203e9046"),
    # denominator 2^16, exactly at the table limit
    ("iid_rect", 20, "-1:21845/65536,0:21845/65536,5:21846/65536", 16, {"m": 21}, "c1bd394691382c7d"),
]


@pytest.mark.parametrize("kind, n, literal, seed, shape, digest", SAMPLE_DIGESTS)
def test_sample_stream_is_pinned(kind, n, literal, seed, shape, digest):
    dist = parse_distribution(literal)
    a = sample_array(EnsembleSpec(kind, n, dist, seed, **shape))
    assert set(a.ravel().tolist()) == set(dist.values)
    assert hashlib.sha256(a.astype("<i8").tobytes()).hexdigest()[:16] == digest


def test_weight_denominator_limit():
    # 2^63 is the largest denominator an int64 digit can reach
    top = parse_distribution(f"0:1/{2**63},1:{2**63 - 1}/{2**63}")
    assert set(sample_array(EnsembleSpec("iid_rect", 4, top, 3)).ravel().tolist()) <= {0, 1}
    over = parse_distribution(f"0:1/{2**63 + 1},1:{2**63}/{2**63 + 1}")
    with pytest.raises(ValueError, match=f"denominator {2**63 + 1} .*2\\^63"):
        sample_array(EnsembleSpec("iid_rect", 4, over, 3))

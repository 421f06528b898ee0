import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsurj import ensembles
from latsurj.ensembles import (
    Distribution,
    EnsembleSpec,
    alpha_min,
    alpha_mod_p,
    derive_seed,
    parse_distribution,
    sample_array,
    sample_columns,
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


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# sha256 prefixes of the little-endian int64 bytes of sample_array, computed
# with a binary search over the cumulative numerators for every denominator:
# every field width and map must reproduce that stream, and any change of
# stream shows
SAMPLE_DIGESTS = [
    ("iid_rect", 30, "uniform01", 11, {"m": 31}, "a66de04af93d72b9"),
    ("iid_rect", 30, "bernoulli(1/10)", 12, {"m": 33}, "b517c85a81fa025e"),
    ("iid_rect", 30, "uniform-1,0,1", 13, {"m": 30}, "82e3d70725fd02c2"),
    ("symmetric_plus", 25, "uniform-1,0,1", 14, {"u": 2}, "b8ac32b630a07ad5"),
    # denominator 2^16 + 1, the narrowest that reads 32-bit fields
    ("iid_rect", 20, "-2:21845/65537,0:21846/65537,3:21846/65537", 15, {"m": 21}, "f4d396c2cf6e605a"),
    # denominator 2^16, the widest that reads 16-bit fields
    ("iid_rect", 20, "-1:21845/65536,0:21845/65536,5:21846/65536", 16, {"m": 21}, "4fb2d16fdde9f7d6"),
    # 64-bit fields: a prime denominator just above 2^32, and 3 * 2^61, which
    # rejects a quarter of its fields
    ("iid_rect", 20, "0:2147483655/4294967311,1:2147483656/4294967311", 17, {"m": 21}, "d2cd07f2cfbd9d80"),
    ("iid_rect", 20, f"0:{2**61 + 3}/{3 * 2**61},1:{2**62 - 3}/{3 * 2**61}", 18, {"m": 21}, "8770a151bc07f2d5"),
    # 32-bit fields, a quarter rejected
    ("iid_rect", 20, f"0:{2**30 + 1}/{3 * 2**30},1:{2**31 - 1}/{3 * 2**30}", 19, {"m": 21}, "e57666ea25f623d7"),
    # 16-bit fields below d = 1000, 536 of 65536 rejected
    ("iid_rect", 20, "-1:333/1000,0:333/1000,4:334/1000", 20, {"m": 21}, "da740045c04248e9"),
    ("symmetric_plus", 20, "-1:333/1000,0:333/1000,4:334/1000", 21, {"u": 3}, "fda3f4dbd1450ca5"),
]


@pytest.mark.parametrize("kind, n, literal, seed, shape, digest", SAMPLE_DIGESTS)
def test_sample_stream_is_pinned(kind, n, literal, seed, shape, digest):
    dist = parse_distribution(literal)
    a = sample_array(EnsembleSpec(kind, n, dist, seed, **shape))
    assert set(a.ravel().tolist()) == set(dist.values)
    assert _digest(a.astype("<i8")) == digest


def test_column_and_stack_streams_are_pinned():
    # bernoulli(1/10) rejects 6 of every 256 byte fields; its column batches
    # and trial stacks keep the stream pinned as sample_array's is
    law = parse_distribution("bernoulli(1/10)")
    assert _digest(sample_columns(law, 30, 7, 18, 2, 1, 3).astype("<i8")) == "a908f1d32b3c744a"
    stack = ensembles.sample_iid_stack(law, 30, 31, 19, range(3, 7))
    assert _digest(stack.astype("<i8")) == "7b680c27db37805b"
    parities = ensembles.sample_iid_stack(law, 30, 31, 19, range(3, 7), parities=True)
    assert parities.dtype == np.uint8 and _digest(parities) == "66bb1611f50da5b2"
    wide = parse_distribution(f"0:{2**30 + 1}/{3 * 2**30},1:{2**31 - 1}/{3 * 2**30}")
    assert _digest(ensembles.sample_iid_stack(wide, 10, 11, 22, range(5, 8), parities=True)) == "9ad60e59bd670fa0"


def test_weight_denominator_limit():
    # 2^63 is the largest denominator an int64 digit can reach
    top = parse_distribution(f"0:1/{2**63},1:{2**63 - 1}/{2**63}")
    assert set(sample_array(EnsembleSpec("iid_rect", 4, top, 3)).ravel().tolist()) <= {0, 1}
    over = parse_distribution(f"0:1/{2**63 + 1},1:{2**63}/{2**63 + 1}")
    with pytest.raises(ValueError, match=f"denominator {2**63 + 1} .*2\\^63"):
        sample_array(EnsembleSpec("iid_rect", 4, over, 3))


def test_support_beyond_the_array_sampler_overflows():
    wide = Distribution.uniform([0, 2**62])
    for _ in range(2):
        with pytest.raises(OverflowError, match="support does not fit the array sampler"):
            sample_array(EnsembleSpec("iid_rect", 2, wide, 0))


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_seed_must_be_a_non_negative_int(seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        EnsembleSpec("iid_rect", 2, U01, seed)


@pytest.mark.parametrize("name", ["trial", "attempt"])
@pytest.mark.parametrize("value", [-1, 2.0, False])
def test_stream_coordinates_must_be_non_negative_ints(name, value):
    message = f"{name} must be a non-negative integer, got {value!r}"
    with pytest.raises(ValueError, match=message):
        EnsembleSpec("iid_rect", 2, U01, 0, **{name: value})
    position = {"seed": 0, "trial": 0, "attempt": 0, name: value}
    with pytest.raises(ValueError, match=message):
        sample_columns(U01, 2, 1, batch=0, **position)


# -- the counter-based stream ---------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 10, 255, 256, 257, 65535])
def test_digit_rule_is_exact_by_enumeration(d):
    # every w-bit field once: each digit below d has the same number of
    # accepted fields, so accepted fields give exactly uniform digits
    w = ensembles._field_bits(d)
    assert d <= 2**w and (w == 8 or d > 2 ** (w // 2))
    fields = np.arange(2**w, dtype=f"u{w // 8}")
    digits, accepted = ensembles._accept(fields, d, w)
    if accepted is None:
        accepted = np.ones(fields.shape, bool)
    counts = np.bincount(digits[accepted].astype(np.int64), minlength=d)
    assert counts.size == d and (counts == 2**w // d).all()


def test_wide_digit_rule_rejects_only_the_top_remainder():
    d = 3 * 2**40
    limit = 2**64 - 2**64 % d
    fields = np.array([0, d - 1, d, limit - 1, limit, 2**64 - 1], dtype=np.uint64)
    digits, accepted = ensembles._accept(fields, d, 64)
    assert accepted.tolist() == [True, True, True, True, False, False]
    assert digits[accepted].tolist() == [0, d - 1, 0, d - 1]
    # a power of two never rejects
    assert ensembles._accept(fields, 2**63, 64)[1] is None


def test_rejected_digits_are_redrawn_from_the_same_stream():
    # d = 129 rejects 127 of every 256 byte fields
    law = Distribution(tuple((v, Fraction(1, 129)) for v in range(129)))
    spec = EnsembleSpec("iid_rect", 40, law, 8, m=50)
    a = sample_array(spec)
    assert (a == sample_array(spec)).all()
    assert a.min() >= 0 and a.max() <= 128
    assert not (a == sample_array(EnsembleSpec("iid_rect", 40, law, 8, m=50, trial=1))).all()


def test_streams_of_a_seed_are_separate():
    # the matrix stream, column batches and attempts of one trial read
    # different counter blocks, and so different words
    def words(stream, trial, attempt):
        return set(ensembles._stream(5, stream, trial, attempt).random_raw(256).tolist())

    matrix = ensembles.MATRIX_STREAM
    seen = [words(matrix, 3, 0), words(matrix + 1, 3, 0), words(matrix + 2, 3, 0),
            words(matrix, 3, 1), words(matrix, 4, 0), words(matrix + 1, 3, 1)]
    for i, a in enumerate(seen):
        assert len(a) == 256
        for b in seen[i + 1 :]:
            assert not a & b
    # the samplers read exactly these positions
    spec = EnsembleSpec("iid_rect", 6, U01, 5, m=6, trial=3, attempt=1)
    columns = sample_columns(U01, 6, 6, 5, 3, 1, 0)
    assert not (sample_array(spec) == columns).all()
    assert (columns == sample_columns(U01, 6, 6, 5, 3, 1, 0)).all()
    assert not (columns == sample_columns(U01, 6, 6, 5, 3, 1, 1)).all()

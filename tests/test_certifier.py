import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latsurj.certifier import (
    Certificate,
    is_surjective,
    surjective_mod_p,
    verify_certificate,
)
from latsurj.exact_linalg import (
    IntMatrix,
    bareiss,
    cokernel,
    det,
    det_mod_crt,
    format_matrix,
    parse_matrix,
    smith_diagonal,
)
from latsurj.primes import FactorizationError, factorize, is_probable_prime, prime_divisors

from oracles import cokernel_brute_force


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


# -- factoring helpers --------------------------------------------------


def test_prime_divisors_examples():
    assert prime_divisors(12) == {2, 3}
    assert prime_divisors(1) == set()
    assert prime_divisors(-1) == set()
    assert prime_divisors(9991) == {97, 103}
    with pytest.raises(ValueError):
        prime_divisors(0)


def test_factorize_products_and_budget():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 10**9)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_probable_prime(p)
            prod *= p**e
        assert prod == n
    # two ~90-bit primes exceed any reasonable rho budget
    hard = (2**89 - 1) * (2**107 - 1)
    with pytest.raises(FactorizationError):
        factorize(hard, rho_budget=10_000)


def test_miller_rabin_agrees_with_trial_division():
    def slow(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(2000):
        assert is_probable_prime(n) == slow(n)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**61 + 1)


# -- mod-p surjectivity --------------------------------------------------


def test_surjective_mod_p_examples():
    assert surjective_mod_p(IntMatrix.identity(3), 5)
    assert not surjective_mod_p(IntMatrix.from_rows([[2, 4]]), 2)
    assert surjective_mod_p(IntMatrix.from_rows([[2, 3]]), 5)
    with pytest.raises(ValueError):
        surjective_mod_p(IntMatrix.from_rows([[1], [2]]), 3)


# -- the certifier --------------------------------------------------------


def test_identity_is_surjective():
    cert = is_surjective(IntMatrix.identity(4))
    assert cert.is_surjective
    assert cert.gcd_value == 1
    assert cert.factorization == ()
    assert verify_certificate(IntMatrix.identity(4), cert)


def test_single_entry_two():
    m = IntMatrix.from_rows([[2]])
    cert = is_surjective(m)
    assert not cert.is_surjective
    assert cert.prime == 2
    assert cert.annihilator is not None
    assert verify_certificate(m, cert)


def test_wide_matrix_with_even_obstruction():
    # cokernel Z/2: every maximal minor is even
    m = IntMatrix.from_rows([[1, 0, 3], [0, 2, 4]])
    assert cokernel(m).invariant_factors == (2,)
    cert = is_surjective(m)
    assert not cert.is_surjective
    assert cert.prime == 2
    assert verify_certificate(m, cert)


def test_wide_matrix_surjective():
    m = IntMatrix.from_rows([[1, 0, 3], [0, 2, 5]])
    cert = is_surjective(m)
    assert cert.is_surjective
    assert verify_certificate(m, cert)


def test_shape_obstruction():
    m = IntMatrix.from_rows([[1], [0]])
    cert = is_surjective(m)
    assert cert.verdict == "not_surjective"
    assert cert.reason == "shape"
    assert verify_certificate(m, cert)


def test_rank_deficient_over_rationals():
    m = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    cert = is_surjective(m)
    assert cert.reason == "rank_deficient"
    assert cert.rational_rank == 1
    assert verify_certificate(m, cert)


def test_oracle_equivalence_randomized():
    rng = random.Random(17)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(rows, rows + 3)
        m = random_matrix(rng, rows, cols)
        cert = is_surjective(m)
        assert cert.is_surjective == cokernel(m).is_trivial, m
        assert verify_certificate(m, cert), m


def test_oracle_equivalence_exhaustive_tiny():
    # every 1x1 and a sweep of 1x2 matrices
    for a in range(-6, 7):
        m = IntMatrix.from_rows([[a]])
        assert is_surjective(m).is_surjective == (abs(a) == 1)
        for b in range(-6, 7):
            m = IntMatrix.from_rows([[a, b]])
            cert = is_surjective(m)
            assert cert.is_surjective == cokernel(m).is_trivial
            assert cert.is_surjective == cokernel_brute_force(m)


def test_monotonicity_appending_columns():
    rng = random.Random(29)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(rows, rows + 2)
        m = random_matrix(rng, rows, cols)
        if is_surjective(m).is_surjective:
            extended = IntMatrix.from_rows([row + [rng.randint(-9, 9)] for row in m.array.tolist()])
            assert is_surjective(extended).is_surjective


def test_large_prime_soundness():
    # primes not dividing the witness determinant keep full rank
    rng = random.Random(41)
    for _ in range(20):
        m = random_matrix(rng, 4, 6)
        cert = is_surjective(m)
        if cert.determinant is None:
            continue
        for p in (10**9 + 7, 10**9 + 9, 2**31 - 1):
            if cert.determinant % p != 0:
                assert surjective_mod_p(m, p)


def test_entries_beyond_int64():
    # a unimodular row operation with a huge multiplier keeps every maximal
    # minor and the cokernel, and pushes the entries past 2^63
    rng = random.Random(43)
    cases = [IntMatrix.from_rows([[2, 0, 0], [0, 2, 2]])]
    cases += [random_matrix(rng, rows, rows + 1, -3, 3) for rows in (2, 2, 9, 9)]
    reasons = []
    for m in cases:
        rows = m.array.tolist()
        rows[0] = [x + (2**64 + 13) * y for x, y in zip(rows[0], rows[1])]
        big = IntMatrix.from_rows(rows)
        assert big.array.dtype == object and max(abs(x) for x in big.array.flat) >= 2**64
        cert = is_surjective(big)
        assert verify_certificate(big, cert)
        assert cert.is_surjective == cokernel(m).is_trivial
        reasons.append(cert.reason)
    assert reasons[0] == "mod_p"


# entries on both sides of the int64 limits, and well past them
INT64_EDGES = (2**63 - 1, -(2**63 - 1), -(2**63), 2**63, 2**62, -(2**62), 2**70)


@st.composite
def boundary_matrices(draw):
    """(rows, columns): a rows x cols matrix of small and int64-edge entries,
    its first row scaled by 1, 2 or 3, and `rows` sorted column indices."""
    r = draw(st.integers(1, 3))
    c = draw(st.integers(r, r + 2))
    entry = st.one_of(st.integers(-3, 3), st.sampled_from(INT64_EDGES))
    body = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    scale = draw(st.sampled_from([1, 2, 3]))
    body[0] = [scale * x for x in body[0]]
    columns = sorted(draw(st.permutations(range(c)))[:r])
    return body, columns


@given(boundary_matrices())
@example(([[2**63 - 1, -(2**63)], [1, 2]], [0, 1]))
@example(([[2**63, 1, 0], [2**70, 0, 2]], [0, 2]))
@example(([[2 * (2**62), 2], [-(2**62), 3]], [0, 1]))
@settings(max_examples=60, deadline=None)
def test_int64_boundary_entries(case):
    rows, columns = case
    text = f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
    m = parse_matrix(text)
    assert format_matrix(m) == text
    fits = all(-(2**63) <= x < 2**63 for row in rows for x in row)
    assert m.array.dtype == (np.int64 if fits else object)
    with pytest.raises(ValueError):
        m.array[0, 0] = 0

    # the minor on the chosen columns, against the Smith form of the same
    # columns picked out of the Python rows
    minor = IntMatrix.from_array(m.array[:, columns])
    picked = IntMatrix.from_rows([[row[j] for j in columns] for row in rows])
    assert minor == picked
    d = det(minor)
    assert d == det_mod_crt(minor)
    assert abs(d) == math.prod(smith_diagonal(picked))
    pivots, d_all = bareiss(m)
    assert len(pivots) == m.rows - cokernel(m).free_rank
    assert d_all == (det_mod_crt(m) if m.is_square else 0)

    cert = is_surjective(m)
    assert cert.is_surjective == cokernel(m).is_trivial
    assert verify_certificate(m, cert)
    doc = cert.to_dict()
    json.dumps(doc)
    for key in ("columns", "columns_alt", "annihilator"):
        assert all(type(x) is int for x in doc.get(key, ()))
    for key in ("determinant", "determinant_alt", "gcd_value", "prime", "rational_rank"):
        assert type(doc.get(key, 0)) is int


# -- certificate verification hardening -------------------------------------


def test_tampered_certificates_rejected():
    # surjective, but only via a nontrivial factored gcd (det of the pivot
    # submatrix is 2, full rank mod 2 holds on the whole matrix)
    m = IntMatrix.from_rows([[2, 0, 1], [0, 1, 0]])
    cert = is_surjective(m)
    assert cert.is_surjective and verify_certificate(m, cert)
    assert cert.factorization == ((2, 1),)
    # drop the prime from the factorization: product mismatch
    bad = replace(cert, factorization=(), prime_checks=())
    assert not verify_certificate(m, bad)
    # wrong determinant
    bad = replace(cert, determinant=cert.determinant + 1)
    assert not verify_certificate(m, bad)
    # wrong gcd
    bad = replace(cert, gcd_value=cert.gcd_value * 3)
    assert not verify_certificate(m, bad)
    # the same columns counted from the end are not column indices
    bad = replace(cert, columns=tuple(j - m.cols for j in cert.columns))
    assert not verify_certificate(m, bad)

    # the second minor goes through the same checks in the verifier's
    # stacked call: here the first candidate (0, 2) is singular
    m = IntMatrix.from_rows([[2, 0, 1, 1], [0, 1, 0, 1]])
    cert = is_surjective(m)
    assert cert.columns_alt == (0, 3) and cert.determinant_alt == 2
    assert verify_certificate(m, cert)
    for columns_alt in (
        (0, -1),  # negative: numpy would read column 3 and the same minor
        (-4, 3),
        (0, 4),  # out of range
        (3, 3),  # repeated
        (0, 0),
        (0.0, 3.0),  # not integers
        (0, 3.5),
        ("0", "3"),
        (0,),  # wrong length
    ):
        assert not verify_certificate(m, replace(cert, columns_alt=columns_alt))
    assert not verify_certificate(m, replace(cert, determinant_alt=None))
    assert not verify_certificate(m, replace(cert, determinant_alt=-2))


def _search_one_at_a_time(m, pivots):
    """The certifier's second-minor search, one candidate per determinant."""
    for j in sorted(set(range(m.cols)) - set(pivots)):
        candidate = tuple(sorted(list(pivots[:-1]) + [j]))
        d = det(IntMatrix.from_array(m.array[:, candidate]))
        if d != 0:
            return candidate, d
    return None, None


def test_second_minor_search_matches_one_at_a_time(monkeypatch):
    import latsurj.certifier as cert_mod

    batches = []
    real = cert_mod.dets_mod_crt

    def recording(arrays):
        batches.append(len(arrays))
        return real(arrays)

    monkeypatch.setattr(cert_mod, "dets_mod_crt", recording)
    rng = random.Random(61)
    n = 12
    for copies in (1, 2, 3):
        # a unimodular block on columns 0..n-1, then three more columns of
        # which the first `copies` repeat column 0: as many candidate minors
        # are singular before one is not
        a = random_matrix(rng, n, n + 3, 0, 1).array.copy()
        a[:, :n] = np.triu(a[:, :n], 1) + np.eye(n, dtype=np.int64)
        a[n - 1, n:] = 1  # the minor replacing column n-1 by j is a[n-1, j]
        a[:, n : n + copies] = a[:, [0]]
        m = IntMatrix.from_array(a)
        batches.clear()
        cert = is_surjective(m)
        assert cert.columns == tuple(range(n)) and cert.determinant == 1
        assert (cert.columns_alt, cert.determinant_alt) == _search_one_at_a_time(m, cert.columns)
        if copies < 3:
            assert cert.columns_alt == tuple(range(n - 1)) + (n + copies,)
        else:
            assert cert.columns_alt is None
        # d1 and the first candidate in one call, then one call per candidate
        assert batches == [2] + [1] * min(copies, 2)
        assert verify_certificate(m, cert)


def test_forged_surjective_verdict_rejected():
    m = IntMatrix.from_rows([[2, 0], [0, 2]])
    forged = Certificate(
        verdict="surjective",
        method="prime_reduction",
        columns=(0, 1),
        determinant=4,
        gcd_value=4,
        factorization=((2, 2),),
        prime_checks=((2, True),),
    )
    assert not verify_certificate(m, forged)


def test_forged_annihilator_rejected():
    m = IntMatrix.identity(2)
    forged = Certificate(
        verdict="not_surjective",
        method="prime_reduction",
        reason="mod_p",
        prime=2,
        annihilator=(1, 0),
    )
    assert not verify_certificate(m, forged)


def test_snf_fallback_certificates():
    # force the fallback by making the factoring budget hit a hard gcd
    import latsurj.certifier as cert_mod

    m = IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    original = cert_mod._primes.factorize
    calls = {}

    def failing_factorize(n, rho_budget=None):
        calls["n"] = n
        raise cert_mod._primes.FactorizationError("forced")

    cert_mod._primes.factorize = failing_factorize
    try:
        scaled = IntMatrix.from_rows([[2, 0, 2], [0, 2, 2]])
        cert = is_surjective(scaled)
        assert cert.method == "snf_fallback"
        assert not cert.is_surjective
        assert verify_certificate(scaled, cert)
    finally:
        cert_mod._primes.factorize = original


def test_certificate_json_dict():
    m = IntMatrix.from_rows([[1, 0, 3], [0, 2, 5]])
    doc = is_surjective(m).to_dict()
    assert doc["verdict"] == "surjective"
    assert set(doc["prime_checks"]) == set(doc["factorization"])

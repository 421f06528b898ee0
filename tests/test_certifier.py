import json
import math
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latsurj.certifier import Certificate, _minors, is_surjective, verify_certificate
from latsurj.exact_linalg import (
    ADJUGATE_ROWS,
    IntMatrix,
    cokernel,
    det,
    format_matrix,
    parse_matrix,
    smith_diagonal,
)
from latsurj.modp import rank_mod_p
from latsurj.primes import crt_primes, is_probable_prime

from oracles import cokernel_brute_force, fraction_free


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


# -- primality ----------------------------------------------------------


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
    m = IntMatrix.identity(3)
    assert rank_mod_p(m.array, 5) == m.rows
    m = IntMatrix.from_rows([[2, 4]])
    assert rank_mod_p(m.array, 2) < m.rows
    m = IntMatrix.from_rows([[2, 3]])
    assert rank_mod_p(m.array, 5) == m.rows


# -- the certifier --------------------------------------------------------


def test_identity_is_surjective():
    cert = is_surjective(IntMatrix.identity(4))
    assert cert.is_surjective
    assert cert.gcd_value == 1
    assert cert.extra_columns is None
    assert verify_certificate(IntMatrix.identity(4), cert)


def test_single_entry_two():
    m = IntMatrix.from_rows([[2]])
    cert = is_surjective(m)
    assert not cert.is_surjective
    assert cert.modulus == 2
    assert cert.annihilator is not None
    assert cert.determinant is None
    assert verify_certificate(m, cert)


def test_wide_matrix_with_even_obstruction():
    # cokernel Z/2: every maximal minor is even
    m = IntMatrix.from_rows([[1, 0, 3], [0, 2, 4]])
    assert cokernel(m).invariant_factors == (2,)
    cert = is_surjective(m)
    assert not cert.is_surjective
    assert (cert.reason, cert.modulus) == ("annihilator", 2)
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
    assert (cert.reason, cert.modulus) == ("annihilator", 2**31 - 1)
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
                assert rank_mod_p(m.array, p) == m.rows


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
        reasons.append((cert.reason, cert.modulus))
    # the first case has det A = 4 on columns (0, 1) and a swap minor of 4,
    # so a row of adj(A) annihilates it modulo 4
    assert reasons[0] == ("annihilator", 4)


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
    assert d == fraction_free([[row[j] for j in columns] for row in rows])[1]
    assert abs(d) == math.prod(smith_diagonal(picked))
    pivots, d_all, _ = fraction_free(rows)
    assert len(pivots) == m.rows - cokernel(m).free_rank
    assert d_all == (det(m) if m.is_square else 0)

    cert = is_surjective(m)
    assert cert.is_surjective == cokernel(m).is_trivial
    assert verify_certificate(m, cert)
    doc = cert.to_dict()
    json.dumps(doc)
    for key in ("columns", "columns_alt", "annihilator"):
        assert all(type(x) is int for x in doc.get(key, ()))
    assert all(type(x) is int for s in doc.get("extra_columns", ()) for x in s)
    for key in ("determinant", "determinant_alt", "gcd_value", "modulus"):
        assert type(doc.get(key, 0)) is int


# -- certificate verification hardening -------------------------------------


def test_tampered_certificates_rejected():
    # the swap of column 0 for column 2 in place has minor 1; sorted, the
    # same columns give -1
    m = IntMatrix.from_rows([[2, 0, 1], [0, 1, 0]])
    cert = is_surjective(m)
    assert (cert.determinant, cert.columns_alt, cert.determinant_alt, cert.gcd_value) == (2, (2, 1), 1, 1)
    assert cert.extra_columns is None and verify_certificate(m, cert)
    assert not verify_certificate(m, replace(cert, columns_alt=(1, 2)))

    # surjective, but only via a gcd of 2: det A = 4 on (0, 1), the swap on
    # (0, 3) lowers it to 2, every row of adj(A) vanishes modulo 2, and full
    # rank mod 2 gives the extra minor on (2, 3), which is 1
    m = IntMatrix.from_rows([[2, 0, 1, 0], [0, 2, 0, 1]])
    cert = is_surjective(m)
    assert cert.is_surjective and verify_certificate(m, cert)
    assert (cert.determinant, cert.columns_alt, cert.determinant_alt) == (4, (0, 3), 2)
    assert (cert.gcd_value, cert.extra_columns) == (2, ((2, 3),))
    # drop the extra minor: gcd 2 remains
    assert not verify_certificate(m, replace(cert, extra_columns=None))
    assert not verify_certificate(m, replace(cert, extra_columns=()))
    # wrong determinant
    bad = replace(cert, determinant=cert.determinant + 1)
    assert not verify_certificate(m, bad)
    # wrong gcd
    bad = replace(cert, gcd_value=cert.gcd_value * 3)
    assert not verify_certificate(m, bad)
    # the same columns counted from the end are not column indices
    bad = replace(cert, columns=tuple(j - m.cols for j in cert.columns))
    assert not verify_certificate(m, bad)
    # a flipped verdict carries no annihilator
    assert not verify_certificate(m, replace(cert, verdict="not_surjective"))

    # the second minor and the extra minors go through the same checks in
    # the verifier's stacked call
    for columns in (
        (0, -1),  # negative: numpy would read column 3 and the same minor
        (-4, 3),
        (0, 4),  # out of range
        (3, 3),  # repeated
        (0, 0),
        (0.0, 3.0),  # not integers
        (0, 3.5),
        ("0", "3"),
        (0,),  # wrong length
        (0, 1, 3),
    ):
        assert not verify_certificate(m, replace(cert, columns_alt=columns))
        # next to a unit minor, only the checks on the bad set can reject
        assert not verify_certificate(m, replace(cert, extra_columns=((2, 3), columns)))
    assert not verify_certificate(m, replace(cert, extra_columns=((-2, 3),)))  # (2, 3) from the end
    assert not verify_certificate(m, replace(cert, determinant_alt=None))
    assert not verify_certificate(m, replace(cert, determinant_alt=-2))
    # a second determinant with no columns to check it on
    assert not verify_certificate(m, replace(cert, columns_alt=None))
    # extra minors that share the factor 2 with the gcd: the minors on
    # (0, 1), (0, 2) and (0, 3) are 4, 0 and 2
    for extra in (((0, 1),), ((0, 2),), ((0, 3),), ((0, 3), (0, 1))):
        assert not verify_certificate(m, replace(cert, extra_columns=extra))
    # any listed minors with gcd 1 prove surjectivity: (3, 2) gives -1
    assert verify_certificate(m, replace(cert, extra_columns=((3, 2),)))
    assert verify_certificate(m, replace(cert, extra_columns=((0, 1), (2, 3))))

    # square: row 0 of adj(M) = diag(3, 2), nonzero modulo det M = 6
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    cert = is_surjective(m)
    assert (cert.modulus, cert.annihilator) == (6, (3, 0)) and verify_certificate(m, cert)
    for modulus, annihilator in ((12, (3, 0)), (5, (3, 0)), (3, (3, 0)), (6, (0, 0)), (6, (3, 1)), (6, (1, 0)), (6, (3,))):
        assert not verify_certificate(m, replace(cert, modulus=modulus, annihilator=annihilator))
    assert not verify_certificate(m, replace(cert, verdict="surjective"))
    # a unimodular square: its one maximal minor is its determinant
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    cert = is_surjective(m)
    assert (cert.columns, cert.determinant, cert.gcd_value, cert.columns_alt) == ((0, 1), 1, 1, None)
    assert verify_certificate(m, cert)
    for bad in (replace(cert, determinant=-1), replace(cert, columns=(0, 0)), replace(cert, columns=(1,)),
                replace(cert, gcd_value=2), replace(cert, verdict="not_surjective")):
        assert not verify_certificate(m, bad)


def _counting(monkeypatch, names):
    """A Counter of the calls the certifier makes to these names."""
    import latsurj.certifier as cert_mod

    calls = Counter()
    for name in names:
        def record(*args, _real=getattr(cert_mod, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cert_mod, name, record)
    return calls


DECIDER_CALLS = ("adjugate_rows", "echelon", "dets_mod_crt", "left_kernel_vector")


def test_independent_first_columns_take_one_adjugate_solve(monkeypatch):
    calls = _counting(monkeypatch, DECIDER_CALLS)
    rng = random.Random(61)
    n = 12
    for copies in (0, 1, 2, 3):
        # A, the first n columns, is unit upper triangular but for its last
        # diagonal entry 2, and the other columns end in 1, so the swap of
        # A's last column for one of them has minor 1; the first `copies`
        # of them repeat column 0, and every swap for one of those is 0
        a = random_matrix(rng, n, n + 3, 0, 1).array.copy()
        a[:, :n] = np.triu(a[:, :n], 1) + np.diag([1] * (n - 1) + [2])
        a[n - 1, n:] = 1
        a[:, n : n + copies] = a[:, [0]]
        m = IntMatrix.from_array(a)
        calls.clear()
        cert = is_surjective(m)
        assert calls == {"adjugate_rows": 1}
        if copies < 3:
            assert (cert.columns, cert.determinant) == (tuple(range(n)), 2)
            assert (cert.columns_alt, cert.determinant_alt) == (tuple(range(n - 1)) + (n + copies,), 1)
            assert cert.gcd_value == 1 and cert.extra_columns is None
        else:
            # B lies in the span of A, so the index is det A = 2, and the
            # last row of adj(A) = 2 A^-1 is odd in its last entry
            assert (cert.reason, cert.modulus) == ("annihilator", 2)
        assert verify_certificate(m, cert)


def _swap_scan(rows, columns):
    """The swaps the decider keeps, recomputed with the fraction-free oracle:
    (column set, minor) for each swap of one of the last ADJUGATE_ROWS
    columns of A in place, the last first, that lowers the gcd."""
    n, cols = len(rows), len(rows[0])
    g, kept = abs(fraction_free([[row[j] for j in columns] for row in rows])[1]), []
    for i in reversed(range(max(n - ADJUGATE_ROWS, 0), n)):
        for j in sorted(set(range(cols)) - set(columns)):
            swap = columns[:i] + (j,) + columns[i + 1 :]
            minor = fraction_free([[row[c] for c in swap] for row in rows])[1]
            if math.gcd(g, minor) < g:
                g = math.gcd(g, minor)
                kept.append((swap, minor))
    return kept


def test_swap_minors_are_the_minors_of_their_column_sets():
    # every kept swap against the oracle, also past 2^63 after a unimodular
    # row operation with multiplier 2^64 + 13, which keeps every minor
    rng = random.Random(67)
    checked = 0
    for case in range(60):
        n = rng.randint(1, 7)
        m = random_matrix(rng, n, n + rng.randint(1, 3), *rng.choice([(0, 1), (-3, 3), (0, 2)]))
        rows = m.array.tolist()
        if case % 2 and n > 1:
            rows[0] = [x + (2**64 + 13) * y for x, y in zip(rows[0], rows[1])]
        big = IntMatrix.from_rows(rows)
        cert = is_surjective(big)
        assert verify_certificate(big, cert)
        if cert.is_surjective:
            kept = _swap_scan(rows, cert.columns)
            listed = [cert.columns_alt] + list(cert.extra_columns or ())
            assert [s for s, _ in kept] == listed[: len(kept)]
            assert cert.determinant_alt == (kept[0][1] if kept else None)
            checked += len(kept)
    assert checked > 20


def test_fallback_to_pivot_columns_when_the_first_are_dependent(monkeypatch):
    calls = _counting(monkeypatch, DECIDER_CALLS)
    p = 2**31 - 1
    # a zero first column: the greedy pivots modulo p are (1, 2)
    m = IntMatrix.from_rows([[0, 1, 0, 1], [0, 0, 1, 1]])
    cert = is_surjective(m)
    assert (cert.columns, cert.determinant, cert.gcd_value) == ((1, 2), 1, 1)
    assert calls == {"adjugate_rows": 2, "echelon": 1}
    assert verify_certificate(m, cert)
    # the same pivots, with a gcd of 2 that neither the swaps nor adj(A)
    # settle: rank 1 modulo 2 gives the annihilator (1, 1)
    calls.clear()
    m = IntMatrix.from_rows([[0, 2, 0, 1], [0, 0, 2, 1]])
    cert = is_surjective(m)
    assert (cert.modulus, cert.annihilator) == (2, (1, 1))
    assert calls == {"adjugate_rows": 2, "echelon": 2, "left_kernel_vector": 1}
    assert verify_certificate(m, cert)
    # rank 1 modulo p but 2 over Q: the index is p
    calls.clear()
    m = IntMatrix.from_rows([[1, 2, 3], [p + 1, 2, 3]])
    cert = is_surjective(m)
    assert (cert.reason, cert.modulus) == ("annihilator", p)
    assert calls == {"adjugate_rows": 1, "echelon": 1, "left_kernel_vector": 1}
    assert verify_certificate(m, cert) and not cokernel(m).is_trivial


def test_det_a_crt_prime_takes_the_residual_elimination(monkeypatch):
    # det A is the first CRT prime, so no rows of adj(A) come back, no swap
    # is scanned, and elimination modulo det A finds the pivots (0, 1, 3)
    calls = _counting(monkeypatch, DECIDER_CALLS)
    q = crt_primes(1)[0]
    m = IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, q, 1]])
    cert = is_surjective(m)
    assert (cert.determinant, cert.columns_alt, cert.gcd_value, cert.extra_columns) == (q, None, q, ((0, 1, 3),))
    assert calls == {"adjugate_rows": 1, "echelon": 1}
    assert verify_certificate(m, cert)


def test_swap_sets_verify_from_one_solve(monkeypatch):
    # criterion 2's shape, a certificate that lists only swaps of one column
    # in place: one det_solve stack of [A | the columns swapped in] gives
    # every minor, solved from the first swapped position on, and no set
    # takes dets_mod_crt
    import latsurj.exact_linalg as exact_linalg

    rng = random.Random(71)
    while True:
        m = random_matrix(rng, 50, 52, 0, 1)
        cert = is_surjective(m)
        sets = [cert.columns_alt, *(cert.extra_columns or ())] if cert.is_surjective else [None]
        if None in sets or len(sets) < 2:
            continue
        swaps = [(i, s[i]) for s in sets for i in range(50) if s[i] != cert.columns[i]]
        if len(swaps) == len(sets):
            break
    brought = sorted({j for _, j in swaps})
    calls = _counting(monkeypatch, ("dets_mod_crt",))
    stacks, real = [], exact_linalg.det_solve

    def recording(stack, primes, first_row=0):
        stacks.append((np.shape(stack), first_row))
        return real(stack, primes, first_row)

    monkeypatch.setattr(exact_linalg, "det_solve", recording)
    assert verify_certificate(m, cert)
    primes = len(exact_linalg._crt_primes(m.array[:, list(cert.columns) + brought]))
    assert stacks == [((primes, 50, 50 + len(brought)), min(i for i, _ in swaps))] and not calls
    assert min(i for i, _ in swaps) >= 50 - ADJUGATE_ROWS


def test_det_a_crt_prime_verifies_through_the_fallback(monkeypatch):
    # det A is the first CRT prime, so the solve of [A | column 3] gives det A
    # but no X, and the swap (0, 1, 3) takes one stacked CRT call of its own
    q = crt_primes(1)[0]
    m = IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, q, 1]])
    cert = Certificate(
        verdict="surjective", columns=(0, 1, 2), determinant=q, columns_alt=(0, 1, 3), determinant_alt=1, gcd_value=1
    )
    calls = _counting(monkeypatch, ("crt_solve", "dets_mod_crt"))
    assert verify_certificate(m, cert)
    assert calls == {"crt_solve": 1, "dets_mod_crt": 1}
    for wrong in (-1, 2, q):
        assert not verify_certificate(m, replace(cert, determinant_alt=wrong))


def test_listed_minors_match_the_oracle():
    # swaps at position 0 (a full back-substitution) and elsewhere, sets
    # that differ from `columns` in two positions, permuted and repeated
    # sets, half of them past 2^64 after a unimodular row operation
    rng = random.Random(73)
    verified = 0
    for case in range(60):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n + rng.randint(1, 3), -3, 3)
        rows = m.array.tolist()
        if case % 2 and n > 1:
            rows[0] = [x + (2**64 + 13) * y for x, y in zip(rows[0], rows[1])]
        m = IntMatrix.from_rows(rows)
        columns = tuple(rng.sample(range(m.cols), n))
        others = [j for j in range(m.cols) if j not in columns]
        sets = [columns, (others[0],) + columns[1:], columns[::-1], columns]
        for _ in range(3):
            i = rng.randrange(n)
            sets.append(columns[:i] + (rng.choice(others),) + columns[i + 1 :])
        if n > 1 and len(others) > 1:
            sets.append((others[1],) + columns[1:-1] + (others[0],))
        rng.shuffle(sets)
        minors = [fraction_free([[row[j] for j in s] for row in rows])[1] for s in sets]
        assert _minors(m, sets) == minors
        cert = Certificate(
            verdict="surjective",
            columns=sets[0],
            determinant=minors[0],
            columns_alt=sets[1],
            determinant_alt=minors[1],
            gcd_value=math.gcd(minors[0], minors[1]),
            extra_columns=tuple(sets[2:]),
        )
        expected = 0 not in minors[:2] and math.gcd(*minors) == 1
        assert verify_certificate(m, cert) == expected
        verified += expected
        if expected:
            assert not verify_certificate(m, replace(cert, determinant_alt=minors[1] + 1))
    assert verified > 20


def test_forged_surjective_verdict_rejected():
    m = IntMatrix.from_rows([[2, 0], [0, 2]])
    forged = Certificate(verdict="surjective", columns=(0, 1), determinant=4, gcd_value=4)
    assert not verify_certificate(m, forged)
    # the only maximal minor is 4, so no extra column set can help
    assert not verify_certificate(m, replace(forged, extra_columns=((0, 1),)))
    assert not verify_certificate(m, replace(forged, extra_columns=((1, 0),)))
    assert not verify_certificate(m, replace(forged, gcd_value=1))
    # the true certificate, with its verdict flipped: row 0 of adj(M) =
    # diag(2, 2), nonzero modulo det M = 4
    cert = is_surjective(m)
    assert (cert.reason, cert.modulus, cert.annihilator) == ("annihilator", 4, (2, 0)) and cert.determinant is None
    assert not verify_certificate(m, replace(cert, verdict="surjective"))


def test_forged_annihilator_rejected():
    m = IntMatrix.identity(2)
    forged = Certificate(verdict="not_surjective", reason="annihilator", modulus=2, annihilator=(1, 0))
    assert not verify_certificate(m, forged)

    # cokernel Z/2; its certificate is w = (0, 1) modulo 2
    m = IntMatrix.from_rows([[1, 0, 3], [0, 2, 4]])
    cert = is_surjective(m)
    assert (cert.modulus, cert.annihilator) == (2, (0, 1)) and cert.determinant is None
    assert verify_certificate(m, cert)
    for modulus, annihilator in (
        (4, (0, 1)),  # composite N with w M = (0, 2, 4) != 0 mod 4
        (6, (0, 1)),
        (0, (0, 1)),  # N below 2
        (1, (0, 1)),
        (-2, (0, 1)),
        (2, (0, 2)),  # w = 0 mod N
        (2, (0, 0)),
        (2, (0, 1, 0)),  # wrong length
        (2, (1,)),
        (2, (0.0, 1.0)),  # not integers
        (2.0, (0, 1)),
        (None, (0, 1)),
        (2, None),
    ):
        assert not verify_certificate(m, replace(cert, modulus=modulus, annihilator=annihilator))
    assert not verify_certificate(m, replace(cert, reason=None))
    assert not verify_certificate(m, replace(cert, reason="shape"))
    assert not verify_certificate(m, replace(cert, verdict="surjective"))
    # a composite modulus is sound: cokernel Z/6, w = (0, 1) modulo 6
    m = IntMatrix.from_rows([[1, 0, 3], [0, 6, 12]])
    assert verify_certificate(m, replace(cert, modulus=6))
    assert verify_certificate(m, replace(cert, modulus=3, annihilator=(3, 1)))
    assert not verify_certificate(m, replace(cert, modulus=3, annihilator=(1, 1)))


# names that must not be needed to certify or verify; they are also made to
# raise where they are defined, in case the certifier reaches them through
# their module
_EXACT_TOOLS = {
    "latsurj.certifier": (
        "factorize",
        "cokernel",
        "smith_diagonal",
        "smith_normal_form",
        "is_probable_prime",
        "rank_mod_p",
    ),
    "latsurj.primes": ("factorize", "is_probable_prime"),
    "latsurj.exact_linalg": ("cokernel", "smith_diagonal", "smith_normal_form"),
}


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return call


@contextmanager
def _forbid(names):
    with pytest.MonkeyPatch.context() as mp:
        for module, attrs in names.items():
            for attr in attrs:
                mp.setattr(f"{module}.{attr}", _forbidden(attr), raising=False)
        yield


def certify_without_exact_tools(m):
    """The certificate of m, which must also come out, and verify, while
    factoring, primality tests and the Smith form raise, and
    verify while elimination raises too.

    A first pass with everything in place fills the CRT prime cache,
    which grows by primality tests of its own.
    """
    expected = is_surjective(m)
    assert verify_certificate(m, expected)
    with _forbid(_EXACT_TOOLS):
        cert = is_surjective(m)
        with _forbid({"latsurj.certifier": ("echelon", "left_kernel_vector"), "latsurj.modp": ("echelon",)}):
            assert verify_certificate(m, cert)
    assert cert == expected
    return cert


def test_snf_fallback_certificates():
    # the certifier once fell back to the Smith form when factoring the gcd
    # failed; no path needs either now.  The gcd below is a product of two
    # Mersenne primes of 89 and 107 bits, which no trial division reaches.
    hard = (2**89 - 1) * (2**107 - 1)
    scaled = IntMatrix.from_rows([[2, 0, 2], [0, 2, 2]])
    assert not cokernel(scaled).is_trivial
    cert = certify_without_exact_tools(scaled)
    # det A = 4, both swap minors are 4, and row (2, 0) of adj(A) is 2 modulo 4
    assert (cert.verdict, cert.modulus, cert.annihilator) == ("not_surjective", 4, (2, 0))

    # the swap of column 0 for column 2 has minor 1 and settles the gcd
    cert = certify_without_exact_tools(IntMatrix.from_rows([[hard, 2 * hard, 1]]))
    assert cert.is_surjective and (cert.determinant, cert.columns_alt, cert.gcd_value) == (hard, (2,), 1)
    assert cert.extra_columns is None
    cert = certify_without_exact_tools(IntMatrix.from_rows([[hard, 2 * hard, 3 * hard]]))
    assert (cert.verdict, cert.modulus, cert.annihilator) == ("not_surjective", hard, (1,))


def test_certificate_json_dict():
    m = IntMatrix.from_rows([[1, 0, 3], [0, 2, 5]])
    doc = is_surjective(m).to_dict()
    assert doc["format"] == 2 and doc["verdict"] == "surjective"
    assert doc["gcd_value"] == math.gcd(doc["determinant"], doc["determinant_alt"])
    assert all(type(j) is int for s in doc.get("extra_columns", [[0]]) for j in s)
    doc = is_surjective(IntMatrix.from_rows([[2, 4]])).to_dict()
    assert doc == {"format": 2, "verdict": "not_surjective", "reason": "annihilator", "modulus": 2, "annihilator": [1]}
    for removed in ("method", "factorization", "prime_checks", "prime", "rational_rank", "invariant_factors", "free_rank"):
        assert removed not in doc


# -- adversarial inputs against the Smith oracle ------------------------------

# the largest 40-bit primes, paired into planted obstructions p * q
PRIMES_40 = [p for p in range(2**40 - 1, 2**40 - 3000, -2) if is_probable_prime(p)][:6]

# planted cokernels: a product of two 40-bit primes, and prime powers and
# products whose elimination meets zero divisors with no coprime split
PLANTED = [(p * q,) for p, q in zip(PRIMES_40[::2], PRIMES_40[1::2])]
PLANTED += [(4,), (2, 2), (8,), (2, 4), (9,), (3, 3), (12,), (2, 6)]
# square only: the first CRT prime in det M leaves the rows of adj(M)
# unknown, and p^2 | det M with corank 2 mod p makes them vanish mod p
CRT_PLANTED = [(crt_primes(1)[0],), (2 * crt_primes(1)[0],), (3, 3 * crt_primes(1)[0])]


def unimodular(rng, n, lo=-3, hi=3):
    """A random n x n integer array of determinant +-1: a unit lower times
    a unit upper triangular factor, with its rows permuted."""
    lower = [[1 if i == j else rng.randint(lo, hi) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(lo, hi) if j > i else 0 for j in range(n)] for i in range(n)]
    product = np.array(lower, dtype=object) @ np.array(upper, dtype=object)
    return product[rng.sample(range(n), n)]


def planted(rng, n, m, diagonal):
    """An n x m matrix with cokernel the sum of Z/d over the first n
    entries d of `diagonal`: U diag(d) [I | R] V for unimodular U and V."""
    d = list(diagonal[:n]) + [1] * (n - len(diagonal))
    onto = np.hstack([np.eye(n, dtype=object), np.array([[rng.randint(-3, 3) for _ in range(m - n)] for _ in range(n)], dtype=object).reshape(n, m - n)])
    a = unimodular(rng, n) @ np.diag(np.array(d, dtype=object)) @ onto @ unimodular(rng, m)
    return IntMatrix.from_array(a)


@st.composite
def adversarial_matrices(draw):
    kind = draw(st.sampled_from(["planted", "unimodular", "degenerate", "one_row", "near_square", "square"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "planted":
        n = draw(st.integers(1, 6))
        return planted(rng, n, n + draw(st.integers(0, 2)), draw(st.sampled_from(PLANTED)))
    if kind == "unimodular":
        return IntMatrix.from_array(unimodular(rng, draw(st.integers(1, 8)), -9, 9))
    if kind == "degenerate":
        # a zero column and a copy of another column, at drawn places
        n = draw(st.integers(1, 5))
        rows = random_matrix(rng, n, n + draw(st.integers(0, 2)), -3, 3).array.tolist()
        copied = draw(st.integers(0, len(rows[0]) - 1))
        zero_at, copy_at = draw(st.integers(0, len(rows[0]))), draw(st.integers(0, len(rows[0]) + 1))
        for row in rows:
            value = row[copied]
            row.insert(zero_at, 0)
            row.insert(copy_at, value)
        return IntMatrix.from_rows(rows)
    if kind == "square":
        n = draw(st.integers(1, 8))
        return planted(rng, n, n, draw(st.sampled_from(PLANTED + CRT_PLANTED)))
    if kind == "one_row":
        return random_matrix(rng, 1, draw(st.integers(1, 6)), -12, 12)
    n = draw(st.integers(1, 6))
    return random_matrix(rng, n, n + 1)


@given(adversarial_matrices())
@example(planted(random.Random(0), 12, 14, PLANTED[0]))
@example(planted(random.Random(1), 4, 5, (4,)))
@example(planted(random.Random(2), 3, 3, (2, 6)))
@example(planted(random.Random(3), 12, 12, PLANTED[0]))
@example(planted(random.Random(4), 5, 5, CRT_PLANTED[0]))
@example(planted(random.Random(5), 4, 4, (2, 2)))
@settings(max_examples=80, deadline=None)
def test_adversarial_matrices_match_smith_oracle(m):
    trivial = cokernel(m).is_trivial
    cert = certify_without_exact_tools(m)
    assert cert.is_surjective == trivial
    if not cert.is_surjective:
        assert cert.determinant is None

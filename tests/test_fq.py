import itertools
import inspect
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from latsurj.fq import (
    FieldTable,
    FqDistribution,
    additive_subgroups,
    balance_alpha,
    check_level_set_nesting,
    cosine_sweep,
    exact_dot_distribution,
    field,
    field_for_order,
    kneser_exhaustive,
    level_set_sweep,
    lo_bound_check,
    lo_exhaustive_grid,
    mu_hat,
    mu_hat_all,
    spec_set,
    spectrum_subgroup_check,
    _dot_law_numerators,
    _level_function,
)

from oracles import dot_law_brute_force, field_add, field_mul


# -- field construction -------------------------------------------------


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 3)])
def test_field_table_axioms(p, f):
    fld = field(p, f)
    q = fld.q
    assert q == p**f
    rng = random.Random(q)
    sample = [rng.randrange(q) for _ in range(12)] + [0, 1, q - 1]
    for a in sample:
        assert fld.add(a, 0) == a
        assert any(fld.add(a, b) == 0 for b in fld.elements())
        assert fld.mul(a, 1) == a
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
    for a, b in itertools.product(sample[:6], repeat=2):
        assert fld.add(a, b) == fld.add(b, a)
        assert fld.mul(a, b) == fld.mul(b, a)
    for a, b, c in itertools.product(sample[:4], repeat=3):
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_multiplicative_group_cyclic(p, f):
    fld = field(p, f)
    powers = set()
    x = 1
    for _ in range(fld.q - 1):
        powers.add(x)
        x = fld.mul(x, fld.generator)
    assert powers == set(range(1, fld.q))


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_array_arithmetic_matches_the_scalar_definitions(q):
    fld = field_for_order(q)
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    add_ref = np.array([[field_add(fld, x, y) for y in range(q)] for x in range(q)])
    mul_ref = np.array([[field_mul(fld, x, y) for y in range(q)] for x in range(q)])
    assert (fld.add(a, b) == add_ref).all() and (fld.mul(a, b) == mul_ref).all()
    assert all(fld.mul(x, y) == fld._mul_poly(x, y) for x in range(q) for y in range(q))
    # broadcasting: a column against a row, a scalar against a vector, a 3-d block
    xs = np.arange(q)
    assert (fld.add(xs[:, None], xs) == add_ref).all() and (fld.mul(xs[:, None], xs) == mul_ref).all()
    assert (fld.add(3, xs) == add_ref[3]).all() and (fld.mul(xs, 3) == mul_ref[:, 3]).all()
    block = xs.reshape(-1, 1, 1)
    assert fld.add(block, a[:2]).shape == (q, 2, q)
    assert (fld.mul(block, a[:2])[:, 1, 0] == mul_ref[:, 1]).all()
    # scalars come back as Python ints
    assert type(fld.add(1, 2)) is int and type(fld.mul(2, 3)) is int


def test_trace_outside_prime_subfield_raises(monkeypatch):
    # a sum landing on the element p (digits 0, 1) is not in F_p
    monkeypatch.setattr(FieldTable, "add", lambda self, a, b: self.p)
    with pytest.raises(RuntimeError, match="prime subfield"):
        FieldTable(2, 2)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_trace_is_linear_onto_prime_field(p, f):
    fld = field(p, f)
    for x in fld.elements():
        assert 0 <= fld.trace(x) < p
        if f == 1:
            assert fld.trace(x) == x
    for x, y in itertools.product(range(min(fld.q, 9)), repeat=2):
        assert fld.trace(fld.add(x, y)) == (fld.trace(x) + fld.trace(y)) % p
    for c in range(p):  # F_p-homogeneity
        for x in range(min(fld.q, 9)):
            cx = fld.mul(c, x)
            assert fld.trace(cx) == (c * fld.trace(x)) % p
    # trace is onto (not identically zero)
    assert any(fld.trace(x) for x in fld.elements())


def test_modulus_polynomials_are_fixed_irreducibles():
    # the deterministic picks, coefficients low degree first
    assert field(2, 2).modulus_poly == (1, 1, 1)  # x^2 + x + 1
    assert field(2, 3).modulus_poly == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert field(3, 2).modulus_poly == (1, 0, 1)  # x^2 + 1
    assert field(2, 4).modulus_poly == (1, 0, 0, 1, 1)  # x^4 + x^3 + 1


def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FieldTable(4, 1)
    with pytest.raises(ValueError):
        FieldTable(2, 13)  # q over the table limit
    with pytest.raises(ValueError):
        field_for_order(12)


# -- Fourier transform -----------------------------------------------------


def test_mu_hat_at_zero_is_one():
    fld = field(3, 1)
    mu = FqDistribution.from_pairs(fld, [(0, Fraction(1, 3)), (1, Fraction(2, 3))])
    assert mu_hat(mu, 0) == pytest.approx(1.0)


def test_mu_hat_uniform_vanishes():
    for q_params in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        fld = field(*q_params)
        mu = FqDistribution.uniform(fld)
        for x in range(1, fld.q):
            assert abs(mu_hat(mu, x)) <= 1e-12


def test_mu_hat_point_mass_modulus_one():
    fld = field(5, 1)
    mu = FqDistribution.from_pairs(fld, [(0, 1)])
    for x in fld.elements():
        assert mu_hat(mu, x) == pytest.approx(1.0)
    assert all(abs(abs(z)) <= 1 + 1e-12 for z in mu_hat_all(mu))


def test_mu_hat_all_matches_pointwise():
    fld = field(2, 3)
    rng = random.Random(1)
    numer = [rng.randint(0, 4) for _ in range(fld.q)]
    numer[0] += 1
    d = sum(numer)
    mu = FqDistribution(fld, tuple(Fraction(c, d) for c in numer))
    vec = mu_hat_all(mu)
    for x in fld.elements():
        assert vec[x] == pytest.approx(mu_hat(mu, x), abs=1e-12)


def test_mu_hat_all_matches_pointwise_beyond_q_512():
    fld = field(521, 1)
    rng = random.Random(5)
    support = rng.sample(range(fld.q), 7)
    numer = [rng.randint(1, 9) for _ in support]
    mu = FqDistribution.from_pairs(fld, [(t, Fraction(c, sum(numer))) for t, c in zip(support, numer)])
    vec = mu_hat_all(mu)
    assert vec.shape == (fld.q,)
    for x in fld.elements():
        assert vec[x] == pytest.approx(mu_hat(mu, x), abs=1e-12)


def test_parseval_identity():
    rng = random.Random(3)
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        fld = field(p, f)
        numer = [rng.randint(0, 5) for _ in range(fld.q)]
        numer[rng.randrange(fld.q)] += 1
        d = sum(numer)
        mu = FqDistribution(fld, tuple(Fraction(c, d) for c in numer))
        lhs = float(np.sum(np.abs(mu_hat_all(mu)) ** 2))
        rhs = fld.q * float(sum(w * w for w in mu.weights))
        assert abs(lhs - rhs) <= 1e-10


# -- spectra ---------------------------------------------------------------


def test_spec_set_extremes():
    fld = field(3, 1)
    mu = FqDistribution.uniform(fld)
    assert spec_set(mu, 1.0) == frozenset(fld.elements())
    assert spec_set(mu, 0.5) == frozenset({0})
    pm = FqDistribution.from_pairs(fld, [(1, 1)])
    assert spec_set(pm, 0.0) == frozenset(fld.elements())


# -- exact dot distributions -------------------------------------------------


def test_exact_dot_zero_vector():
    fld = field(5, 1)
    mu = FqDistribution.from_pairs(fld, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    law = exact_dot_distribution(mu, [0, 0, 0])
    assert law[0] == 1


def test_exact_dot_single_coordinate_pushforward():
    fld = field(5, 1)
    mu = FqDistribution.from_pairs(fld, [(1, Fraction(1, 3)), (2, Fraction(2, 3))])
    law = exact_dot_distribution(mu, [3])
    assert law[fld.mul(3, 1)] == Fraction(1, 3)
    assert law[fld.mul(3, 2)] == Fraction(2, 3)


def test_exact_dot_f2_pair():
    fld = field(2, 1)
    mu = FqDistribution.from_pairs(fld, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    law = exact_dot_distribution(mu, [1, 1])
    assert law == (Fraction(1, 2), Fraction(1, 2))


def test_exact_dot_sums_to_one_and_permutation_invariant():
    fld = field(7, 1)
    rng = random.Random(9)
    numer = [rng.randint(0, 3) for _ in range(7)]
    numer[0] += 1
    d = sum(numer)
    mu = FqDistribution(fld, tuple(Fraction(c, d) for c in numer))
    w = [rng.randrange(7) for _ in range(4)]
    law = exact_dot_distribution(mu, w)
    assert sum(law) == 1
    rng.shuffle(w)
    assert exact_dot_distribution(mu, w) == law


# (q, numerator rows over one denominator, coefficients w)
DOT_LAW_BATCHES = [
    (3, [(1, 3, 0)], [1, 2, 1]),
    (3, [(1, 2, 1), (4, 0, 0), (0, 1, 3)], [1, 2, 2]),
    (3, [(1, 1, 1)], [1]),
    (4, [(1, 0, 2, 3), (3, 1, 1, 1), (0, 0, 6, 0)], [1, 2, 3, 2]),
    (4, [(2, 1, 0, 1)], [2, 0, 3]),
    (5, [(1, 2, 0, 0, 4), (2, 2, 1, 1, 1)], [1, 3, 4]),
    (8, [(1, 1, 0, 0, 2, 0, 0, 3)], [1, 2, 5, 7, 2]),
]


def test_exact_dot_agrees_with_brute_enumeration():
    for q, rows, w in DOT_LAW_BATCHES:
        fld = field_for_order(q)
        for row in rows:
            weights = tuple(Fraction(c, sum(row)) for c in row)
            law = exact_dot_distribution(FqDistribution(fld, weights), w)
            assert law == dot_law_brute_force(fld, weights, w), (q, row, w)


def test_exact_dot_is_exact_past_int64():
    # an lcm denominator near 10^14 over four coefficients: den^4 is near 10^56
    fld = field(5, 1)
    weights = (Fraction(1, 9999991), Fraction(3, 10000019), Fraction(0), Fraction(2, 7))
    weights += (1 - sum(weights),)
    w = [1, 2, 4, 3]
    mu = FqDistribution(fld, weights)
    den = math.lcm(*(x.denominator for x in weights))
    assert den ** len(w) >= 2**63
    law = exact_dot_distribution(mu, w)
    assert law == dot_law_brute_force(fld, weights, w)
    assert sum(law) == 1
    # a denominator past int64 already in the weights
    wide = (Fraction(1, 10**10 + 1), Fraction(1, 10**10 + 3), Fraction(0), Fraction(0))
    wide += (1 - sum(wide),)
    mu_wide = FqDistribution(fld, wide)
    assert exact_dot_distribution(mu_wide, w) == dot_law_brute_force(fld, wide, w)
    assert balance_alpha(mu_wide) == 1 - max(wide)


# -- balance and the LO bound ---------------------------------------------


def test_balance_alpha_prime_field_is_max_weight_complement():
    fld = field(5, 1)
    mu = FqDistribution.from_pairs(fld, [(0, Fraction(2, 3)), (1, Fraction(1, 3))])
    assert balance_alpha(mu) == Fraction(1, 3)


def test_balance_alpha_detects_coset_concentration():
    f4 = field(2, 2)
    # any two-element support {0, x} spans an F_2-line, so alpha = 0
    for x in (1, 2, 3):
        mu = FqDistribution.from_pairs(f4, [(0, Fraction(1, 2)), (x, Fraction(1, 2))])
        assert balance_alpha(mu) == 0
    # spreading mass over three elements balances every line coset
    mu3 = FqDistribution.from_pairs(
        f4, [(0, Fraction(1, 2)), (1, Fraction(1, 4)), (2, Fraction(1, 4))]
    )
    assert balance_alpha(mu3) == Fraction(1, 4)


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_balance_alpha_matches_all_shifts(q):
    # one shift per coset against every shift s + H, s in F_q
    fld = field_for_order(q)
    subgroups = additive_subgroups(fld, max_dim=fld.f - 1)
    rng = random.Random(q)
    for _ in range(5):
        support = rng.sample(range(q), rng.randint(1, q))
        mass = [rng.randint(1, 9) for _ in support]
        mu = FqDistribution.from_pairs(fld, [(x, Fraction(m, sum(mass))) for x, m in zip(support, mass)])
        heaviest = max(sum(mu.weights[field_add(fld, s, h)] for h in sub) for sub in subgroups for s in range(q))
        assert balance_alpha(mu) == 1 - heaviest


def test_lo_bound_uniform_lhs_zero():
    fld = field(3, 1)
    mu = FqDistribution.uniform(fld)
    res = lo_bound_check(mu, [1, 1], 0)
    assert res.lhs == pytest.approx(0.0, abs=1e-12)
    assert res.holds


def test_lo_bound_worked_example():
    fld = field(3, 1)
    mu = FqDistribution.from_pairs(fld, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    res = lo_bound_check(mu, [1, 1, 1, 1], 0)
    assert res.probability == Fraction(5, 16)
    assert res.lhs == pytest.approx(abs(5 / 16 - 1 / 3), abs=1e-12)
    assert res.rhs == pytest.approx(2 / math.sqrt(2), abs=1e-12)
    assert res.holds and not res.vacuous


def test_lo_bound_rejects_zero_support():
    fld = field(3, 1)
    mu = FqDistribution.uniform(fld)
    with pytest.raises(ValueError):
        lo_bound_check(mu, [0, 0], 0)


def test_lo_bound_and_dot_law_reject_values_outside_the_field():
    # r indexes the law and each coefficient the log table, so neither may
    # wrap: at q = 4, -1 would read as the element 3 = 1 + x, not as 1
    mu = FqDistribution.uniform(field(3, 1))
    for r in (3, 7, -1):
        with pytest.raises(ValueError, match="r must be a field element"):
            lo_bound_check(mu, [1, 1], r)
    mu4 = FqDistribution.uniform(field(2, 2))
    for w in ([-1], [1, 4]):
        with pytest.raises(ValueError, match="coefficients must be field elements"):
            exact_dot_distribution(mu4, w)
        with pytest.raises(ValueError):
            lo_bound_check(mu4, w, 0)
    # the level function read w = -1 as w = 3 and failed on w = 4 with an IndexError
    skewed = FqDistribution.from_pairs(field(2, 2), [(0, Fraction(1, 2)), (1, Fraction(1, 4)), (2, Fraction(1, 4))])
    for w in ([-1], [4], [1, -1]):
        with pytest.raises(ValueError, match="coefficients must be field elements"):
            _level_function(skewed, w)
        with pytest.raises(ValueError, match="coefficients must be field elements"):
            check_level_set_nesting(skewed, w, 0.5, 2)



def test_lo_bound_vacuous_when_degenerate():
    f4 = field(2, 2)
    mu = FqDistribution.from_pairs(f4, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    res = lo_bound_check(mu, [1], 0)
    assert res.vacuous and res.holds


# -- level sets --------------------------------------------------------------


def test_level_set_contains_zero_and_everything_at_large_v():
    fld = field(5, 1)
    mu = FqDistribution.from_pairs(fld, [(0, Fraction(1, 2)), (2, Fraction(1, 2))])
    f = _level_function(mu, [1, 3, 4])
    assert f[0] <= 1e-9  # 0 lies in T(0)
    assert (f <= 3 + 1e-9).all()  # T(len(w)) is all of F_q


def test_level_set_uniform_collapses_to_zero():
    fld = field(5, 1)
    mu = FqDistribution.uniform(fld)
    f = _level_function(mu, [1, 1, 1])
    assert np.flatnonzero(f <= 2.9 + 1e-9).tolist() == [0]  # T(2.9) = {0}


def test_level_set_membership_recomputable():
    fld = field(7, 1)
    mu = FqDistribution.from_pairs(fld, [(0, Fraction(1, 3)), (1, Fraction(2, 3))])
    w = [1, 2]
    v = 0.7
    f = _level_function(mu, w)
    hat = [abs(mu_hat(mu, x)) ** 2 for x in fld.elements()]
    for x in fld.elements():
        f_x = sum(1 - hat[fld.mul(wl, x)] for wl in w)
        assert f[x] == pytest.approx(f_x, abs=1e-12)


# -- sumsets, Sym, Kneser ------------------------------------------------------


def test_kneser_inequality_naive_small():
    for n in range(1, 7):
        subsets = [
            {i for i in range(n) if mask >> i & 1}
            for mask in range(1, 1 << n)
        ]
        for a, b in itertools.product(subsets, repeat=2):
            x = {(s + t) % n for s in a for t in b}
            sym = {h for h in range(n) if {(h + e) % n for e in x} == x}
            assert len(x) + len(sym) >= len(a) + len(b)


def test_kneser_fast_matches_naive_counts():
    rep = kneser_exhaustive(6)
    assert rep.cases == (2**6 - 1) ** 2
    assert not rep.violations


def test_level_set_nesting_examples():
    fld = field(5, 1)
    mu = FqDistribution.from_pairs(fld, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    w = [1, 2, 3]
    assert check_level_set_nesting(mu, w, 0.8, 1)  # k = 1 trivially
    uniform = FqDistribution.uniform(fld)
    assert check_level_set_nesting(uniform, [1, 1], 1.9, 3)  # T(v) = {0}
    for v in (0.0, 0.3, 0.9, 2.0, math.inf):
        for k in (1, 2, 3):
            assert check_level_set_nesting(mu, w, v, k)
    # T(nan) is empty, so a NaN level would hold vacuously
    with pytest.raises(ValueError, match="level v must be a number, got nan"):
        check_level_set_nesting(mu, w, math.nan, 2)


# -- spectrum vs subgroups ------------------------------------------------------


def test_spectrum_subgroup_prime_field():
    fld = field(5, 1)
    mu = FqDistribution.from_pairs(fld, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    res = spectrum_subgroup_check(mu)
    assert res.hypothesis_ok and res.holds


def test_spectrum_subgroup_uniform_f4():
    f4 = field(2, 2)
    res = spectrum_subgroup_check(FqDistribution.uniform(f4))
    assert res.holds


def test_spectrum_subgroup_reports_hypothesis_violation():
    f4 = field(2, 2)
    line = FqDistribution.from_pairs(f4, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    res = spectrum_subgroup_check(line)
    assert not res.hypothesis_ok
    assert res.holds is None


def test_spectrum_subgroup_randomized_f8():
    f8 = field(2, 3)
    rng = random.Random(21)
    checked = 0
    for _ in range(40):
        numer = [rng.randint(0, 4) for _ in range(8)]
        numer[rng.randrange(8)] += 1
        d = sum(numer)
        mu = FqDistribution(f8, tuple(Fraction(c, d) for c in numer))
        res = spectrum_subgroup_check(mu)
        if res.hypothesis_ok:
            checked += 1
            assert res.holds, (numer, res.witness)
    assert checked > 10


def test_additive_subgroup_counts():
    f8 = field(2, 3)
    subs = additive_subgroups(f8)
    assert sorted(len(s) for s in subs) == [1] + [2] * 7 + [4] * 7 + [8]
    for s in subs:  # closed under addition
        for a, b in itertools.product(s, repeat=2):
            assert f8.add(a, b) in s


# -- library sweeps -----------------------------------------------------------


def test_lo_grid_small_clean_and_cross_checked():
    rep = lo_exhaustive_grid(3, max_m=3, max_den=4)
    assert not rep.violations and rep.cases > 0
    # the grid's integer convolution over den^m against brute-force enumeration
    for q, rows, w in DOT_LAW_BATCHES:
        fld = field_for_order(q)
        laws = _dot_law_numerators(fld, np.array(rows, dtype=np.int64), w)
        for row, law in zip(rows, laws):
            den = sum(row)
            brute = dot_law_brute_force(fld, [Fraction(c, den) for c in row], w)
            assert [Fraction(int(c), den ** len(w)) for c in law] == list(brute), (q, row, w)


def test_cosine_sweep_clean():
    rep = cosine_sweep(instances=5000, seed=3)
    assert rep.cases == 5000 and not rep.violations
    assert list(inspect.signature(cosine_sweep).parameters) == ["instances", "seed"]


def test_full_rank_frequency_bound():
    """Sampled n x (n-k) matrices over F_p have independent columns with
    frequency at least 1 - n(1-alpha)^k, up to 4 standard errors."""
    from latsurj.ensembles import Distribution, EnsembleSpec, derive_seed, sample_array
    from latsurj.modp import rank_mod_p

    u01 = Distribution.uniform([0, 1])
    for p, n, k, trials in ((2, 20, 8, 300), (3, 15, 9, 300)):
        alpha = 1 - 1 / p
        bound = 1 - n * (1 - alpha) ** k
        hits = 0
        for i in range(trials):
            # n-k iid vectors in F_p^n, laid out as the rows of a wide draw
            spec = EnsembleSpec("iid_rect", n - k, u01, derive_seed(4242 + p, i), m=n)
            arr = sample_array(spec)
            if rank_mod_p(arr, p) == n - k:
                hits += 1
        freq = hits / trials
        se = math.sqrt(max(bound * (1 - bound), 0.25 / trials) / trials)
        assert freq >= bound - 4 * se


def test_level_set_sweep_clean():
    rep = level_set_sweep(pairs=30, seed=4)
    assert not rep.violations and rep.cases == 30 * 13 * 4
    assert list(inspect.signature(level_set_sweep).parameters) == ["pairs", "seed"]

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsurj.certifier import is_surjective
from latsurj.ensembles import Distribution, EnsembleSpec, derive_seed, sample_matrix
from latsurj import exact_linalg, exposure, primes as primes_module
from latsurj.exact_linalg import IntMatrix, cokernel, det
from latsurj.modp import ColumnSpace, rank_mod_p
from latsurj.exposure import SingularStart, batch_size, run_exposure, u_budget
from latsurj.primes import crt_primes

from oracles import naive_factorization

U01 = Distribution.uniform([0, 1])
LAWS = {
    "uniform01": U01,
    "uniform-1,0,1": Distribution.uniform([-1, 0, 1]),
    "sparse": Distribution(((0, Fraction(4, 5)), (1, Fraction(1, 10)), (-1, Fraction(1, 10)))),
}
# the largest int64 path, the smallest object path, and a 61-bit prime
EDGE_PRIMES = (2, 3, 2**31 - 1, 2**31 + 11, 2**61 - 1)


def test_batch_size_values():
    assert batch_size(100, Fraction(1, 2), 1.0, 10**9) == 1
    assert batch_size(100, Fraction(1, 2), 1.0, 1) == 10  # ceil(9.2103)
    k1 = batch_size(100, Fraction(1, 2), 1.0, 3)
    k2 = batch_size(100, Fraction(1, 2), 2.0, 3)
    assert abs(k2 - 2 * k1) <= 1  # ceiling arithmetic
    with pytest.raises(ValueError):
        batch_size(100, Fraction(1, 2), 1.0, 0)


def test_u_budget_values():
    assert u_budget(100, Fraction(1, 2), 1.0) == 25
    assert u_budget(50, Fraction(1, 2), 2.0) == 40


@pytest.mark.parametrize("b", [0.0, -1.0, float("nan")])
def test_budget_and_batch_reject_non_positive_b(b):
    # B = -1 used to give the budget -5 and run on
    with pytest.raises(ValueError, match="B must be positive"):
        u_budget(100, Fraction(1, 2), b)
    with pytest.raises(ValueError, match="B must be positive"):
        batch_size(100, Fraction(1, 2), b, 3)


def test_run_exposure_identity():
    trace = run_exposure(IntMatrix.identity(4), U01, 1.0, seed=5)
    assert trace.achieved
    assert trace.total_extra_columns == 0
    assert trace.primes == ()
    assert trace.final_matrix == IntMatrix.identity(4)


def test_run_exposure_two_identity():
    m = IntMatrix.from_rows([[2, 0], [0, 2]])
    trace = run_exposure(m, U01, 1.0, seed=6)
    assert trace.primes == (2,)
    assert {p: traj[0] for p, traj in trace.trajectories.items()} == {2: 2}
    assert trace.achieved


def test_run_exposure_rejects_singular():
    with pytest.raises(SingularStart) as info:
        run_exposure(IntMatrix.from_rows([[0, 0], [0, 0]]), U01, 1.0, seed=1)
    assert isinstance(info.value, ValueError)


def test_run_exposure_rejects_degenerate_dist():
    point = Distribution(((1, Fraction(1)),))
    with pytest.raises(ValueError):
        run_exposure(IntMatrix.identity(2), point, 1.0, seed=1)


def test_unfactorable_determinant_runs_without_factoring_or_smith_form(monkeypatch):
    # det(m0) is twice a product of two Mersenne primes of 89 and 107 bits,
    # which no trial division reaches: exposure splits it by gcds only, and
    # neither factoring nor a Smith form (wherever a module binds it) may
    # stand in
    def forbidden(*args):
        raise AssertionError("factoring or Smith form called")

    for module in (primes_module, exact_linalg, exposure):
        for name in ("factorize", "smith_diagonal", "smith_normal_form"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    m0 = planted_start(6, PLANTED_STARTS["mersenne"], 0)
    trace = run_exposure(m0, U01, 1.0, seed=1)
    assert trace.achieved and abs(det(m0)) == 2 * (2**89 - 1) * (2**107 - 1)
    assert math.prod(trace.primes) == abs(det(m0))


def test_exposure_determinism():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])  # det 1: no primes, trivial
    m2 = IntMatrix.from_rows([[2, 0], [0, 6]])
    a = run_exposure(m2, U01, 1.5, seed=77)
    b = run_exposure(m2, U01, 1.5, seed=77)
    assert a.final_matrix == b.final_matrix
    assert a.trajectories == b.trajectories


def trace_invariants(trace, n, alpha, b):
    for p, traj in trace.trajectories.items():
        assert all(x >= y for x, y in zip(traj, traj[1:])), "corank increased"
    assert trace.total_extra_columns == sum(trace.batch_sizes)
    # recorded batch sizes match the schedule recomputed from d_prev
    for d_prev, k in zip(trace.batch_d_prev, trace.batch_sizes):
        assert k == batch_size(n, alpha, b, d_prev)
    if trace.achieved:
        assert all(traj[-1] == 0 for traj in trace.trajectories.values())


def test_exposure_trace_invariants_randomized():
    rng = random.Random(4)
    alpha = Fraction(1, 2)
    for trial in range(25):
        n = rng.randint(3, 12)
        spec = EnsembleSpec("iid_rect", n, U01, derive_seed(999, trial), m=n)
        m0 = sample_matrix(spec)
        from latsurj.exact_linalg import det

        if det(m0) == 0:
            continue
        trace = run_exposure(m0, U01, 1.5, seed=derive_seed(1000, trial))
        trace_invariants(trace, n, alpha, 1.5)
        if trace.achieved:
            assert is_surjective(trace.final_matrix).is_surjective
            # final matrix is full rank mod every prime of every tracked modulus
            structure = cokernel(trace.final_matrix)
            for q in trace.primes:
                assert structure.free_rank == 0 and all(math.gcd(d, q) == 1 for d in structure.invariant_factors)


def test_batch_success_frequency_bound():
    """Per-batch success rate stays above the per-batch lower bound
    1 - (1-alpha)^(d*k), pooled over runs, within 4 standard errors."""
    alpha = Fraction(1, 2)
    rng = random.Random(8)
    attempts = 0
    successes = 0
    expectation = 0.0
    variance = 0.0
    for trial in range(120):
        n = rng.randint(4, 10)
        spec = EnsembleSpec("iid_rect", n, U01, derive_seed(555, trial), m=n)
        m0 = sample_matrix(spec)
        from latsurj.exact_linalg import det

        if det(m0) == 0:
            continue
        trace = run_exposure(m0, U01, 1.0, seed=derive_seed(556, trial))
        for i, k in enumerate(trace.batch_sizes):
            for p, traj in trace.trajectories.items():
                d_before = traj[i]
                if d_before == 0:
                    continue
                bound = 1 - (1 - float(alpha)) ** (d_before * k)
                attempts += 1
                expectation += bound
                variance += bound * (1 - bound)
                if traj[i + 1] < d_before:
                    successes += 1
    assert attempts > 0
    assert successes >= expectation - 4 * math.sqrt(max(variance, 1.0))


def test_csv_row_shape():
    m = IntMatrix.from_rows([[2, 0], [0, 2]])
    trace = run_exposure(m, U01, 1.0, seed=6)
    fields = trace.csv_row().split(",")
    assert len(fields) == 5
    assert fields[0] == "6"
    assert fields[4] in {"0", "1"}


@pytest.mark.parametrize("name", ["seed", "trial", "attempt"])
def test_negative_stream_position_is_rejected_up_front(name):
    m = IntMatrix.from_rows([[2, 0], [0, 2]])
    position = {"seed": 6, "trial": 0, "attempt": 0, name: -1}
    with pytest.raises(ValueError, match=f"{name} must be a non-negative integer, got -1"):
        run_exposure(m, U01, 1.0, **position)


def planted_start(n, diagonal, seed):
    """U diag(d) V for unimodular U and V with small entries, d the products
    of the given prime tuples padded with ones: det is the product of the
    diagonal, and the corank mod p is the number of its entries divisible
    by p."""
    rng = np.random.default_rng(seed)

    def unimodular():
        lower = np.tril(rng.integers(-1, 2, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
        upper = np.triu(rng.integers(-1, 2, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
        return (lower @ upper)[rng.permutation(n)].astype(object)

    entries = [math.prod(primes) for primes in diagonal] + [1] * (n - len(diagonal))
    d = np.diag(np.array(entries, dtype=object))
    return IntMatrix.from_array(unimodular() @ d @ unimodular())


# planted diagonals, each entry given by its primes: corank 2 mod 3 and
# mod 5 (p^2 | det), primes past 2^31, a product of two Mersenne primes
# that no trial division reaches, and the first CRT prime, which leaves
# the adjugate rows unknown
PLANTED_STARTS = {
    "corank2": ((3,), (3, 5), (5,)),
    "large_prime": ((2**31 + 11,), (2**61 - 1,)),
    "mersenne": ((2**89 - 1, 2**107 - 1), (2,)),
    "crt_prime": ((crt_primes(1)[0],), (2,)),
}


@given(
    st.integers(3, 12),
    st.sampled_from(sorted(LAWS)),
    st.integers(0, 2**32),
    st.sampled_from(["sampled"] + sorted(PLANTED_STARTS)),
)
@settings(max_examples=80, deadline=None)
def test_trajectories_match_prefix_ranks(n, law, seed, start):
    """The tracked moduli are pairwise coprime and carry exactly the primes
    of det(m0), and for every prime p of modulus q, trajectory[q][i] is n
    minus the rank mod p of the columns of the final matrix up to the end
    of batch i.  A starting span eliminates m0 modulo a multiple of p at
    least at the primes p of corank 2 or more, and at every prime when a
    CRT prime divides det(m0); elsewhere it is one row of adj(m0)."""
    dist = LAWS[law]
    if start == "sampled":
        # entries in [-1, 1] and n <= 12 keep |det| below 12^6
        m0 = sample_matrix(EnsembleSpec("iid_rect", n, dist, derive_seed(seed, 0), m=n))
        d = det(m0)
        det_primes = set(naive_factorization(d)) if d else set()
    else:
        m0 = planted_start(n, PLANTED_STARTS[start], seed)
        det_primes = {p for primes in PLANTED_STARTS[start] for p in primes}
    if det(m0) == 0:
        with pytest.raises(SingularStart):
            run_exposure(m0, dist, 1.0, seed=derive_seed(seed, 1))
        return
    eliminated = []
    original = ColumnSpace.from_columns

    def from_columns(modulus, columns, ambient):
        eliminated.append(modulus)
        return original(modulus, columns, ambient)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ColumnSpace, "from_columns", staticmethod(from_columns))
        trace = run_exposure(m0, dist, 1.0, seed=derive_seed(seed, 1))

    moduli = trace.primes
    assert list(moduli) == sorted(trace.trajectories)
    assert all(math.gcd(q, r) == 1 for i, q in enumerate(moduli) for r in moduli[:i])
    primes_of = {q: {p for p in det_primes if q % p == 0} for q in moduli}
    for q, primes in primes_of.items():
        for p in primes:
            while q % p == 0:
                q //= p
        assert q == 1
    assert set().union(*primes_of.values()) == det_primes

    final = trace.final_matrix.array
    ends = np.cumsum((n,) + trace.batch_sizes)
    start_corank = {}
    for q, traj in trace.trajectories.items():
        assert len(traj) == len(ends)
        for p in primes_of[q]:
            assert list(traj) == [n - rank_mod_p(final[:, :end], p) for end in ends]
            start_corank[p] = traj[0]
    eliminated_primes = {p for p in det_primes if any(q % p == 0 for q in eliminated)}
    assert {p for p, c in start_corank.items() if c >= 2} <= eliminated_primes
    if det(m0) % crt_primes(1)[0] == 0:
        assert eliminated_primes == det_primes
    elif n <= 4:  # the adjugate rows are all of adj(m0)
        assert eliminated_primes == {p for p, c in start_corank.items() if c >= 2}
    if start == "corank2":
        assert start_corank[3] == start_corank[5] == 2


@given(st.integers(1, 8), st.integers(1, 12), st.sampled_from(EDGE_PRIMES + (5,)), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_block_and_vector_extension_match_rank(n, k, p, seed):
    rng = np.random.default_rng(seed)
    # a few distinct columns, repeated and combined, so that many add nothing
    base = rng.integers(-2, 3, size=(n, max(1, n // 2)))
    cols = base @ rng.integers(-1, 2, size=(base.shape[1], k))
    cols[:, ::3] = rng.choice([-1, 0, 1, 2**40], size=(n, len(range(0, k, 3))))
    split = rng.integers(0, k + 1)
    by_block = ColumnSpace.from_columns(p, cols[:, :split].T, n).extend(cols[:, split:])
    by_vector = ColumnSpace(p, n)
    for j in range(k):
        by_vector = by_vector.extend(cols[:, j])
        assert by_vector.dimension == rank_mod_p(cols[:, : j + 1], p)
    assert by_block.dimension == by_vector.dimension
    assert all(by_block.contains(c) and by_vector.contains(c) for c in cols.T)
    assert all(by_block.contains(c) == by_vector.contains(c) for c in rng.integers(-3, 4, size=(5, n)))

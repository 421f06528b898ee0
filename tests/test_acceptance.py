"""Acceptance suite: one test per stated criterion, at full scale.

Each criterion prints a PASS/FAIL line (run pytest with -s to see them all
even on success).  Experiment-backed criteria cache their reports so the
determinism criterion can replay them with a different worker count and
compare canonical serializations byte for byte.
"""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from latsurj.certifier import is_surjective, verify_certificate
from latsurj.ensembles import Distribution
from latsurj.exact_linalg import IntMatrix, cokernel
from latsurj.experiments import (
    CORANK,
    EXPOSURE,
    SINGULARITY,
    SYMMETRIC,
    TRIVIAL,
    ExperimentConfig,
    run_experiment,
)
from latsurj.exposure import u_budget
from latsurj.fq import (
    cosine_sweep,
    kneser_exhaustive,
    level_set_sweep,
    lo_exhaustive_grid,
)
from latsurj.predictions import corank_prediction, trivial_cokernel_all_primes

from oracles import odlyzko_violations

MASTER_SEED = 20260809
U01 = Distribution.uniform([0, 1])

_reports: dict = {}


def _announce(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _cached_report(key: str, cfg: ExperimentConfig):
    if key not in _reports:
        _reports[key] = (cfg, run_experiment(cfg))
    return _reports[key][1]


# -- criterion 1: corank distribution ----------------------------------------


CFG_CORANK = ExperimentConfig(
    CORANK, n=60, trials=10_000, master_seed=MASTER_SEED, dist=U01, p=2, tolerance=0.02
)


def test_criterion_1_corank_distribution():
    start = time.perf_counter()
    report = _cached_report("corank", CFG_CORANK)
    elapsed = time.perf_counter() - start
    by_label = {o.label: o for o in report.outcomes}
    ok = True
    details = []
    for k in (0, 1, 2):
        out = by_label[f"corank={k}"]
        pred = corank_prediction(2, k).value
        dev = abs(out.freq - pred)
        ok &= dev <= 0.02
        details.append(f"k={k} freq={out.freq:.4f} pred={pred:.4f} dev={dev:.4f}")
    ok &= elapsed < 60
    _announce("criterion 1 (corank dist)", ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok
    assert sum(o.count for o in report.outcomes) == CFG_CORANK.trials


# -- criterion 2: rectangular triviality --------------------------------------


CFG_TRIVIAL = ExperimentConfig(
    TRIVIAL, n=50, trials=2_000, master_seed=MASTER_SEED, dist=U01, u=2, tolerance=0.03
)


def test_criterion_2_rectangular_triviality():
    start = time.perf_counter()
    report = _cached_report("trivial", CFG_TRIVIAL)
    elapsed = time.perf_counter() - start
    out = report.outcomes[0]
    pred = trivial_cokernel_all_primes(2).value
    dev = abs(out.freq - pred)
    ok = dev <= 0.03 and elapsed < 300
    _announce(
        "criterion 2 (rectangular triviality)",
        ok,
        f"freq={out.freq:.4f} pred={pred:.4f} dev={dev:.4f}; {elapsed:.1f}s",
    )
    assert ok


# -- criterion 3: square non-surjectivity --------------------------------------


CFG_SQUARE = ExperimentConfig(
    TRIVIAL, n=50, trials=500, master_seed=MASTER_SEED, dist=U01, u=0, tolerance=0.02
)


def test_criterion_3_square_never_surjective():
    report = _cached_report("square", CFG_SQUARE)
    freq = report.outcomes[0].freq
    ok = freq <= 0.02
    _announce("criterion 3 (square non-surjectivity)", ok, f"trivial freq={freq:.4f}")
    assert ok


# -- criterion 4: certifier vs SNF oracle ---------------------------------------


def test_criterion_4_certifier_oracle_equivalence():
    import random

    rng = random.Random(MASTER_SEED)
    mismatches = 0
    unverified = 0
    for _ in range(1000):
        rows = rng.randint(2, 8)
        cols = rng.randint(rows, rows + 3)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        cert = is_surjective(m)
        if cert.is_surjective != cokernel(m).is_trivial:
            mismatches += 1
        if not verify_certificate(m, cert):
            unverified += 1
    ok = mismatches == 0 and unverified == 0
    _announce(
        "criterion 4 (certifier-oracle equivalence)",
        ok,
        f"1000 matrices, {mismatches} verdict mismatches, {unverified} unverified certificates",
    )
    assert ok


# -- criterion 5: exact Odlyzko suite --------------------------------------------


def test_criterion_5_odlyzko_exhaustive():
    violations = []
    for p in (2, 3):
        violations.extend(odlyzko_violations(p, n_max=5, max_den=4))
    ok = not violations
    _announce(
        "criterion 5 (exact Odlyzko suite)",
        ok,
        f"p in {{2,3}}, n <= 5, denominators <= 4: {len(violations)} violations",
    )
    assert ok


# -- criterion 6: Littlewood-Offord grid + Kneser + sweeps -----------------------


def test_criterion_6_lo_grid_kneser_and_sweeps():
    start = time.perf_counter()
    pieces = []
    total_violations = 0
    for q in (2, 3, 4, 5, 7, 8):
        rep = lo_exhaustive_grid(q, max_m=6, max_den=8)
        total_violations += len(rep.violations)
        pieces.append(f"q={q}:{rep.cases}")
    kneser_cases = 0
    for n in range(1, 13):
        rep = kneser_exhaustive(n)
        total_violations += len(rep.violations)
        kneser_cases += rep.cases
    cos = cosine_sweep(instances=100_000, seed=MASTER_SEED)
    total_violations += len(cos.violations)
    nest = level_set_sweep(pairs=2000, seed=MASTER_SEED)  # 2000*13*4 = 104k
    total_violations += len(nest.violations)
    elapsed = time.perf_counter() - start
    ok = total_violations == 0 and elapsed < 600
    _announce(
        "criterion 6 (LO grid + Kneser + sweeps)",
        ok,
        f"lo cases {' '.join(pieces)}; kneser pairs={kneser_cases}; "
        f"cosine={cos.cases}; nesting={nest.cases}; "
        f"{total_violations} violations; {elapsed:.1f}s",
    )
    assert ok


# -- criterion 7: exposure process ------------------------------------------------


CFG_EXPOSURE = ExperimentConfig(
    EXPOSURE,
    n=50,
    trials=200,
    master_seed=MASTER_SEED,
    dist=U01,
    b=2.0,
    min_frequency=0.95,
)


def test_criterion_7_exposure_budget():
    report = _cached_report("exposure", CFG_EXPOSURE)
    budget = u_budget(50, Fraction(1, 2), 2.0)
    assert report.config["u_budget"] == budget
    freq = report.outcomes[0].freq
    traces = report.artifacts["traces"]
    monotone = all(
        all(a >= b for a, b in zip(traj, traj[1:]))
        for t in traces
        for traj in t.trajectories.values()
    )
    surjective = all(
        is_surjective(t.final_matrix).is_surjective for t in traces if t.achieved
    )
    ok = freq >= 0.95 and monotone and surjective
    _announce(
        "criterion 7 (exposure budget)",
        ok,
        f"within u_budget={budget}: freq={freq:.3f}; monotone={monotone}; "
        f"achieved runs surjective={surjective}",
    )
    assert ok


# -- criterion 8: sparse singularity ----------------------------------------------
#
# Mod-2 rank deficiency has limiting probability 1 - prod(1 - 2^-i) ~ 0.711
# for any balanced ensemble (criterion 1 measures exactly this), so a
# rare-singularity criterion is only attainable for the exact event det = 0.
# The experiment therefore runs in exact-det mode; mod_p mode stays available.


CFG_SINGULARITY = ExperimentConfig(
    SINGULARITY,
    n=400,
    trials=200,
    master_seed=MASTER_SEED,
    dist=Distribution(((0, Fraction(9, 10)), (1, Fraction(1, 10)))),
    mode="det",
    max_singular=1,
)


def test_criterion_8_sparse_singularity():
    start = time.perf_counter()
    report = _cached_report("singularity", CFG_SINGULARITY)
    elapsed = time.perf_counter() - start
    count = report.outcomes[0].count
    ok = count <= 1 and elapsed < 120
    _announce(
        "criterion 8 (sparse singularity)",
        ok,
        f"singular {count}/200 (exact det = 0); {elapsed:.1f}s",
    )
    assert ok


# -- criterion 9: symmetric model ---------------------------------------------------


CFG_SYMMETRIC = ExperimentConfig(
    SYMMETRIC,
    n=40,
    trials=200,
    master_seed=MASTER_SEED,
    dist=U01,
    u=13,
    b=1.0,
    min_frequency=0.8,
)

CFG_SYMMETRIC_CONTROL = replace(CFG_SYMMETRIC, u=0, min_frequency=None)


def test_criterion_9_symmetric_model():
    assert CFG_SYMMETRIC.u == math.ceil(math.sqrt(40 * math.log(40)))
    report = _cached_report("symmetric", CFG_SYMMETRIC)
    control = _cached_report("symmetric_control", CFG_SYMMETRIC_CONTROL)
    freq = report.outcomes[0].freq
    control_freq = control.outcomes[0].freq
    ok = freq >= 0.8 and control_freq < freq
    _announce(
        "criterion 9 (symmetric model)",
        ok,
        f"u=13 freq={freq:.3f} (>= 0.8); u=0 control freq={control_freq:.3f} (strictly lower)",
    )
    assert ok


# -- criterion 10: determinism across worker counts ---------------------------------


def test_wilson_intervals_cover_predictions():
    """Across the prediction-bearing acceptance outcomes, the 95% Wilson
    interval contains the limiting value in at least 90% of cases
    (finite-n bias allowance)."""
    report_1 = _cached_report("corank", CFG_CORANK)
    report_2 = _cached_report("trivial", CFG_TRIVIAL)
    covered = 0
    total = 0
    for rep in (report_1, report_2):
        for o in rep.outcomes:
            if o.prediction is None:
                continue
            total += 1
            if o.ci_lo <= o.prediction <= o.ci_hi:
                covered += 1
    ok = covered >= 0.9 * total
    _announce(
        "wilson coverage", ok, f"{covered}/{total} prediction outcomes inside 95% CI"
    )
    assert ok


def test_criterion_10_determinism():
    keys_cfgs = [
        ("corank", CFG_CORANK),
        ("trivial", CFG_TRIVIAL),
        ("square", CFG_SQUARE),
        ("exposure", CFG_EXPOSURE),
        ("singularity", CFG_SINGULARITY),
        ("symmetric", CFG_SYMMETRIC),
        ("symmetric_control", CFG_SYMMETRIC_CONTROL),
    ]
    mismatched = []
    for key, cfg in keys_cfgs:
        baseline = _cached_report(key, cfg).canonical_json()
        rerun = run_experiment(replace(cfg, threads=4)).canonical_json()
        if baseline != rerun:
            mismatched.append(key)
    # criteria 4-6 are deterministic exhaustive checks; replay a sample and
    # compare serialized outcomes
    rep_a = lo_exhaustive_grid(5, max_m=4, max_den=6)
    rep_b = lo_exhaustive_grid(5, max_m=4, max_den=6)
    if (rep_a.cases, rep_a.violations) != (rep_b.cases, rep_b.violations):
        mismatched.append("lo_grid")
    ok = not mismatched
    _announce(
        "criterion 10 (determinism)",
        ok,
        "byte-identical canonical reports across thread counts"
        + (f"; mismatches: {mismatched}" if mismatched else " (runtime/meta excluded)"),
    )
    assert ok

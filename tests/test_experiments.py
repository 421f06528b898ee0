import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from latsurj.certifier import is_surjective
from latsurj.ensembles import (
    Distribution,
    EnsembleSpec,
    parse_distribution,
    sample_array,
    sample_iid_stack,
    sparse_bernoulli,
)
from latsurj.exact_linalg import IntMatrix
from latsurj import experiments
from latsurj.experiments import (
    CORANK,
    EXPOSURE,
    SINGULARITY,
    SYMMETRIC,
    TRIVIAL,
    ExperimentConfig,
    run_experiment,
    wilson_interval,
)
from latsurj.modp import pack_gf2, rank_mod_p

U01 = Distribution.uniform([0, 1])
POINT0 = Distribution(((0, Fraction(1)),))
POINT1 = Distribution(((1, Fraction(1)),))


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0
    assert wilson_interval(100, 100)[1] == 1.0
    # wider at lower confidence? no: narrower
    lo90, hi90 = wilson_interval(50, 100, confidence=0.90)
    assert hi90 - lo90 < hi - lo


def test_corank_point_mass_at_zero():
    cfg = ExperimentConfig(CORANK, n=5, trials=20, master_seed=1, dist=POINT0, p=3)
    rep = run_experiment(cfg)
    by_label = {o.label: o for o in rep.outcomes}
    assert by_label["corank=5"].count == 20
    assert sum(o.count for o in rep.outcomes) == 20  # frequencies partition


def test_corank_report_has_predictions():
    cfg = ExperimentConfig(CORANK, n=12, trials=60, master_seed=5, dist=U01, p=2, tolerance=0.2)
    rep = run_experiment(cfg)
    by_label = {o.label: o for o in rep.outcomes}
    assert by_label["corank=0"].prediction == pytest.approx(0.2887880950866, abs=1e-9)
    assert by_label["corank=0"].tail_bound is not None
    assert rep.all_pass  # 0.2 tolerance is generous at these sizes


def test_trivial_experiment_p_restricted():
    cfg = ExperimentConfig(
        TRIVIAL,
        n=10,
        trials=400,
        master_seed=11,
        dist=U01,
        u=2,
        primes=(2,),
        mode="p_restricted",
        tolerance=0.08,
    )
    rep = run_experiment(cfg)
    o = rep.outcomes[0]
    assert o.label == "trivial_p_part"
    # prediction: prod_k (1 - 2^-(k+2)) = 0.7701015868976 (rational oracle)
    assert o.prediction == pytest.approx(0.7701015868976, abs=1e-9)
    assert o.passed


def test_singularity_point_mass_always_singular():
    cfg = ExperimentConfig(
        SINGULARITY, n=3, trials=10, master_seed=3, dist=POINT1, mode="det", max_singular=0
    )
    rep = run_experiment(cfg)
    by_label = {o.label: o for o in rep.outcomes}
    assert by_label["singular"].count == 10
    assert by_label["singular"].passed is False
    assert "singularity_curves" in rep.extra


def test_singularity_dense_uniform_rare():
    cfg = ExperimentConfig(
        SINGULARITY, n=40, trials=100, master_seed=8, dist=U01, mode="det"
    )
    rep = run_experiment(cfg)
    by_label = {o.label: o for o in rep.outcomes}
    assert by_label["singular"].freq <= 0.02


def test_singularity_mod_p_mode():
    cfg = ExperimentConfig(
        SINGULARITY, n=20, trials=30, master_seed=4, dist=U01, mode="mod_p", p=2
    )
    rep = run_experiment(cfg)
    count = {o.label: o.count for o in rep.outcomes}
    # mod-2 rank deficiency is common (limit ~ 0.711)
    assert count["singular"] > 5


def test_symmetric_experiment_spot_checks_symmetry():
    cfg = ExperimentConfig(
        SYMMETRIC, n=12, trials=10, master_seed=6, dist=U01, u=8, min_frequency=0.0
    )
    rep = run_experiment(cfg)
    assert rep.config["u"] == 8
    assert rep.outcomes[0].label == "trivial"


def test_symmetric_default_u_formula():
    import math

    cfg = ExperimentConfig(SYMMETRIC, n=40, trials=2, master_seed=6, dist=U01, b=1.0)
    rep = run_experiment(cfg)
    assert rep.config["u"] == math.ceil(math.sqrt(40 * math.log(40)))  # 13


def test_exposure_experiment_traces_and_rows():
    cfg = ExperimentConfig(
        EXPOSURE, n=10, trials=8, master_seed=9, dist=U01, b=1.5, min_frequency=0.0
    )
    rep = run_experiment(cfg)
    assert len(rep.extra["runs"]) == 8
    traces = rep.artifacts["traces"]
    for t in traces:
        for p, traj in t.trajectories.items():
            assert all(a >= b for a, b in zip(traj, traj[1:]))
        if t.achieved:
            assert is_surjective(t.final_matrix).is_surjective


def test_exposure_resampling_is_bounded():
    # a 3 x 3 start with P(1) = 1/3 is often singular: a resampled start is
    # attempt a of trial i, the Philox position (master, i, a)
    cfg = ExperimentConfig(EXPOSURE, n=3, trials=6, master_seed=4, dist=sparse_bernoulli("1/3"), b=1.0)
    attempts = []
    for i, trace in enumerate(run_experiment(cfg).artifacts["traces"]):
        attempts.append(trace.attempt)
        start = sample_array(EnsembleSpec("iid_rect", 3, cfg.dist, 4, m=3, trial=i, attempt=trace.attempt))
        assert rank_mod_p(start, 1_000_000_007) == 3
    assert max(attempts) > 0
    # with P(1) = 10^-6 a start is singular but for odds below 10^-16: the
    # trial stops after 1000 attempts instead of looping forever
    nearly_zero = replace(cfg, trials=2, dist=sparse_bernoulli(Fraction(1, 10**6)))
    with pytest.raises(RuntimeError, match="trial 0: all 1000"):
        run_experiment(nearly_zero)


def test_exposure_report_lists_each_trials_attempt():
    cfg = ExperimentConfig(EXPOSURE, n=3, trials=6, master_seed=4, dist=sparse_bernoulli("1/3"), b=1.0)
    rep = run_experiment(cfg)
    attempts = [trace.attempt for trace in rep.artifacts["traces"]]
    assert rep.extra["attempts"] == attempts and max(attempts) > 0
    assert json.loads(rep.canonical_json())["attempts"] == attempts


def test_symmetric_experiment_rejects_asymmetric_sample(monkeypatch):
    def asymmetric(spec):
        return IntMatrix(spec.n, spec.m, tuple(range(spec.n * spec.m)))

    monkeypatch.setattr(experiments, "sample_matrix", asymmetric)
    cfg = ExperimentConfig(SYMMETRIC, n=4, trials=1, master_seed=6, dist=U01, u=1)
    with pytest.raises(RuntimeError, match="symmetric sample"):
        run_experiment(cfg)


def _one_trial_at_a_time(cfg):
    """Outcome counts recomputed trial by trial from (master_seed, i)."""
    m = cfg.n + (cfg.u or 0)
    counts = Counter()
    for i in range(cfg.trials):
        a = sample_array(EnsembleSpec("iid_rect", cfg.n, cfg.dist, cfg.master_seed, m=m, trial=i))
        if cfg.experiment == CORANK:
            counts[f"corank={cfg.n - rank_mod_p(a, cfg.p)}"] += 1
        elif cfg.mode == "all_primes":
            counts["trivial" if is_surjective(IntMatrix.from_array(a)).is_surjective else "nontrivial"] += 1
        elif cfg.experiment == TRIVIAL:
            full = all(rank_mod_p(a, p) == cfg.n for p in cfg.primes)
            counts["trivial_p_part" if full else "nontrivial_p_part"] += 1
        else:
            counts["singular" if rank_mod_p(a, cfg.p) < cfg.n else "nonsingular"] += 1
    return counts


def test_trial_matrices_recoverable_from_seed():
    # Every experiment runs chunks of up to 256 trials, which the rank
    # experiments eliminate at once; each trial must still equal its own
    # (master_seed, i) matrix taken alone.
    u101 = Distribution.uniform([-1, 0, 1])
    wide = parse_distribution("-3:1/4,0:1/4,256:1/4,257:1/4")
    d256 = Distribution.uniform(range(-100, 156))
    d1024 = parse_distribution("0:1001/1024,1:7/1024,2:15/1024,-9:1/1024")
    configs = [
        ExperimentConfig(CORANK, n=5, trials=1, master_seed=0, dist=U01, p=2),
        # negative atoms and atoms of 2^8 and up: the parity buffer is uint8
        ExperimentConfig(CORANK, n=5, trials=1, master_seed=0, dist=wide, p=2),
        ExperimentConfig(CORANK, n=5, trials=1, master_seed=0, dist=u101, p=3),
        ExperimentConfig(TRIVIAL, n=4, trials=1, master_seed=0, dist=u101, u=1, primes=(2, 3), mode="p_restricted"),
        ExperimentConfig(SINGULARITY, n=5, trials=1, master_seed=0, dist=U01, mode="mod_p", p=2),
        ExperimentConfig(TRIVIAL, n=4, trials=1, master_seed=0, dist=u101, u=1, mode="all_primes"),
        # one atom (d = 1), 8-bit and 16-bit fields of d = 256 and 1024, and
        # a 5 x 7 matrix, whose 35 fields end inside a word
        ExperimentConfig(CORANK, n=5, trials=1, master_seed=0, dist=parse_distribution("7:1"), p=2),
        ExperimentConfig(CORANK, n=5, trials=1, master_seed=0, dist=d256, p=2),
        ExperimentConfig(CORANK, n=5, trials=1, master_seed=0, dist=d1024, p=2),
        ExperimentConfig(TRIVIAL, n=5, trials=1, master_seed=0, dist=d1024, u=2, primes=(2, 5), mode="p_restricted"),
        # rows of one uint64 word and of two
        ExperimentConfig(TRIVIAL, n=4, trials=1, master_seed=0, dist=U01, u=60, primes=(2,), mode="p_restricted"),
        ExperimentConfig(TRIVIAL, n=4, trials=1, master_seed=0, dist=U01, u=66, primes=(2,), mode="p_restricted"),
    ]
    runs = [(1, 3, 1), (255, 11, 1), (256, 12, 2), (257, 13, 1), (257, 15, 3), (513, 14, 3)]
    for cfg in configs:
        for trials, seed, threads in runs:
            if cfg.mode == "all_primes" and trials > 257:
                continue  # one is_surjective a trial, in the run and in the oracle
            run = replace(cfg, trials=trials, master_seed=seed, threads=threads)
            report = run_experiment(run)
            counts = Counter({o.label: o.count for o in report.outcomes if o.count})
            assert counts == _one_trial_at_a_time(run), (run.experiment, run.p, trials)


@pytest.mark.parametrize("threads", [1, 2])
def test_trial_drawn_alone_equals_its_draw_in_a_report(monkeypatch, threads):
    # uniform01 at p = 2 draws parities; uniform-1,0,1 at p = 3 rejects and
    # refills fields and draws values; both through the one draw path
    for dist, p in ((U01, 2), (Distribution.uniform([-1, 0, 1]), 3)):
        drawn = Counter()
        stacks = {}

        def recording(law, n, m, seed, trials, parities=False):
            stack = sample_iid_stack(law, n, m, seed, trials, parities)
            drawn.update(trials)
            stacks.update(zip(trials, stack))
            return stack

        monkeypatch.setattr(experiments, "sample_iid_stack", recording)
        run_experiment(ExperimentConfig(CORANK, n=7, trials=300, master_seed=31, dist=dist, p=p, threads=threads))
        assert sorted(drawn) == list(range(300)) and set(drawn.values()) == {1}
        for i in (0, 1, 150, 299):
            alone = sample_array(EnsembleSpec("iid_rect", 7, dist, 31, trial=i))
            assert stacks[i].dtype == (np.uint8 if p == 2 else np.int64)
            assert (stacks[i] == (alone & 1 if p == 2 else alone)).all()


def test_corank_packs_each_chunk_once(monkeypatch):
    # 300 trials are two chunks, 256 and 44; each chunk's parities are packed in one call
    shapes = []

    def recording(a):
        shapes.append(a.shape)
        return pack_gf2(a)

    monkeypatch.setattr(experiments, "pack_gf2", recording)
    run_experiment(ExperimentConfig(CORANK, n=6, trials=300, master_seed=5, dist=U01, p=2))
    assert shapes == [(256, 6, 6), (44, 6, 6)]


@pytest.mark.parametrize(
    "threads,trials,cpus,workers",
    [
        (5000, 5000, 3, 3),  # 5000 one-trial chunks, three CPUs
        (4, 2, 8, 2),  # two chunks
        (3, 300, 8, 3),
        (4, 400, None, None),  # an unknown CPU count runs in the calling thread
    ],
)
def test_worker_threads_are_capped_by_cpus_and_chunks(monkeypatch, threads, trials, cpus, workers):
    made = []

    class RecordingPool:
        """Records max_workers and maps in the calling thread: no thread starts."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    cfg = ExperimentConfig(CORANK, n=3, trials=trials, master_seed=4, dist=U01, p=2, threads=threads)
    report = run_experiment(cfg)
    assert made == ([] if workers is None else [workers])
    assert report.canonical_json() == run_experiment(replace(cfg, threads=1)).canonical_json()


@pytest.mark.parametrize("threads,trials", [(1, 300), (4, 1)])
def test_cpu_count_is_read_only_when_threads_could_start(monkeypatch, threads, trials):
    # one thread, or one chunk, runs in the calling thread whatever the CPUs
    def unread():
        raise AssertionError("os.cpu_count read")

    monkeypatch.setattr(experiments.os, "cpu_count", unread)
    cfg = ExperimentConfig(CORANK, n=3, trials=trials, master_seed=4, dist=U01, p=2, threads=threads)
    assert sum(o.count for o in run_experiment(cfg).outcomes) == trials


def test_report_hashes_its_seed_a_constant_number_of_times(monkeypatch):
    # the Philox key is hashed once per master seed, not once per trial
    made = []

    class Counting(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    report = run_experiment(ExperimentConfig(CORANK, n=10, trials=200, master_seed=2**70 + 3, dist=U01, p=2))
    assert sum(o.count for o in report.outcomes) == 200
    assert len(made) <= 2


@pytest.mark.parametrize("seed", [-1, 2.0, False])
def test_master_seed_must_be_a_non_negative_int(seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        ExperimentConfig(CORANK, n=4, trials=2, master_seed=seed, dist=U01, p=2)


@pytest.mark.parametrize("kind,extra", [(SYMMETRIC, dict(u=2)), (EXPOSURE, dict(b=1.0))])
def test_trials_spread_over_every_worker(monkeypatch, kind, extra):
    # 200 trials fit one 256-trial chunk; at threads=4 each worker must
    # still get a chunk of its own
    chunks = []
    map_chunks = experiments._map_chunks

    def spy(cfg, m, per_chunk):
        def recorded(chunk):
            chunks.append(chunk)
            return per_chunk(chunk)

        return map_chunks(cfg, m, recorded)

    monkeypatch.setattr(experiments, "_map_chunks", spy)
    cfg = ExperimentConfig(kind, n=5, trials=200, master_seed=21, dist=U01, threads=4, **extra)
    report = run_experiment(cfg)
    assert len(chunks) >= 4
    assert sorted(i for chunk in chunks for i in chunk) == list(range(200))
    assert report.canonical_json() == run_experiment(replace(cfg, threads=1)).canonical_json()


# -- determinism across worker counts ----------------------------------------


@pytest.mark.parametrize(
    "kind,extra",
    [
        (CORANK, dict(p=2)),
        (TRIVIAL, dict(u=1, tolerance=0.5)),
        (SINGULARITY, dict(mode="det")),
        (SYMMETRIC, dict(u=3)),
        (EXPOSURE, dict(b=1.0)),
    ],
)
def test_reports_identical_across_thread_counts(kind, extra):
    reports = []
    for threads in (1, 3, 7):
        cfg = ExperimentConfig(
            kind, n=8, trials=12, master_seed=77, dist=U01, threads=threads, **extra
        )
        reports.append(run_experiment(cfg).canonical_json())
    assert reports[0] == reports[1] == reports[2]


def test_report_serialization_schema():
    cfg = ExperimentConfig(CORANK, n=6, trials=5, master_seed=2, dist=U01, p=2)
    rep = run_experiment(cfg)
    doc = json.loads(rep.to_json())
    assert set(doc) >= {"config", "outcomes", "seed", "runtime_ms", "meta"}
    for o in doc["outcomes"]:
        assert set(o) == {
            "label",
            "count",
            "freq",
            "ci_lo",
            "ci_hi",
            "prediction",
            "tail_bound",
            "pass",
        }
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "label,count,freq,ci_lo,ci_hi,prediction,tail_bound,pass"
    # canonical form excludes volatile fields
    canon = json.loads(rep.canonical_json())
    assert "runtime_ms" not in canon and "meta" not in canon


def test_unknown_experiment_rejected():
    cfg = ExperimentConfig(CORANK, n=4, trials=2, master_seed=1, dist=U01, p=2)
    with pytest.raises(ValueError):
        run_experiment(replace(cfg, experiment="nope"))


@pytest.mark.parametrize(
    "kind,mode",
    [(TRIVIAL, "p-restricted"), (TRIVIAL, "det"), (SINGULARITY, "mod-p"), (SINGULARITY, "all_primes"),
     (CORANK, "mod_p"), (EXPOSURE, "det"), (SYMMETRIC, "p_restricted")],
)
def test_unknown_modes_rejected(kind, mode):
    # a misspelt mode must not fall through to another mode's runner
    cfg = ExperimentConfig(kind, n=4, trials=2, master_seed=1, dist=U01, p=2, primes=(2,), mode=mode)
    with pytest.raises(ValueError, match="unknown mode"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "kind,mode", [(TRIVIAL, "all_primes"), (TRIVIAL, "default"), (CORANK, "default"), (SINGULARITY, "mod_p")]
)
def test_prime_set_outside_p_restricted_rejected(kind, mode):
    # only p_restricted reads the prime set; the others would record it unused
    cfg = ExperimentConfig(kind, n=4, trials=2, master_seed=1, dist=U01, u=1, p=2, primes=(2,), mode=mode)
    with pytest.raises(ValueError, match="prime set applies only"):
        run_experiment(cfg)


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_rejected(threads):
    # a worker count below 1 used to run serially and be recorded as given
    with pytest.raises(ValueError, match="threads"):
        ExperimentConfig(CORANK, n=4, trials=2, master_seed=1, dist=U01, p=2, threads=threads)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -0.01])
def test_tolerance_outside_finite_non_negative_rejected(tolerance):
    # a nan tolerance used to fail every prediction check
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        ExperimentConfig(CORANK, n=4, trials=2, master_seed=1, dist=U01, p=2, tolerance=tolerance)
    assert ExperimentConfig(CORANK, n=4, trials=2, master_seed=1, dist=U01, p=2, tolerance=0.0).tolerance == 0.0

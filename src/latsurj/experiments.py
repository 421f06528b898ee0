"""Monte Carlo harness comparing empirical frequencies against predictions.

Trials are independent tasks whose RNG substreams derive from
(master seed, trial index), and per-trial results aggregate through a
commutative counter, so reports are identical for any worker count.  The
rank experiments (corank, p-restricted trivial cokernel, mod-p
singularity) hand workers chunks of trials and eliminate each chunk as
one batch, bit-packed for p = 2; the others hand out single trials.  The
canonical report serialization deliberately excludes wall-clock time and
worker metadata; those live in a side "meta" block of the written file.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, List, Optional, Tuple

from .certifier import is_surjective
from .ensembles import (
    IID_RECT,
    SYMMETRIC_PLUS,
    Distribution,
    EnsembleSpec,
    alpha_min,
    derive_seed,
    sample_array,
    sample_matrix,
)
from .exact_linalg import det_is_zero
from .exposure import ExposureTrace, SingularStart, run_exposure, u_budget
from .modp import gf2_ranks, pack_gf2, rank_mod_p
from .predictions import (
    Prediction,
    corank_prediction,
    trivial_cokernel_all_primes,
    trivial_cokernel_prediction,
)
from . import primes as _primes

CORANK = "corank_dist"
TRIVIAL = "trivial_cokernel"
SINGULARITY = "singularity"
EXPOSURE = "exposure"
SYMMETRIC = "symmetric"

# corank outcomes up to this k carry a prediction
K_PREDICT = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment run; everything that affects results."""

    experiment: str
    n: int
    trials: int
    master_seed: int
    dist: Distribution
    u: Optional[int] = None
    p: Optional[int] = None
    primes: Optional[Tuple[int, ...]] = None
    b: float = 1.0
    mode: str = "default"
    tolerance: float = 0.02
    confidence: float = 0.95
    min_frequency: Optional[float] = None
    max_singular: Optional[int] = None
    threads: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "n": self.n,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "dist": self.dist.literal(),
            "mode": self.mode,
            "tolerance": self.tolerance,
            "confidence": self.confidence,
            "b": self.b,
        }
        for key in ("u", "p", "min_frequency", "max_singular"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        if self.primes is not None:
            out["primes"] = list(self.primes)
        return out


@dataclass(frozen=True)
class Outcome:
    label: str
    count: int
    freq: float
    ci_lo: float
    ci_hi: float
    prediction: Optional[float] = None
    tail_bound: Optional[float] = None
    passed: Optional[bool] = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "count": self.count,
            "freq": self.freq,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "prediction": self.prediction,
            "tail_bound": self.tail_bound,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    outcomes: Tuple[Outcome, ...]
    seed: int
    runtime_ms: float
    extra: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict, compare=False)  # never serialized

    @property
    def all_pass(self) -> bool:
        return all(o.passed for o in self.outcomes if o.passed is not None)

    def payload(self) -> dict:
        """The deterministic portion of the report."""
        out = {
            "config": self.config,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "seed": self.seed,
        }
        out.update(self.extra)
        return out

    def canonical_json(self) -> str:
        """Byte-stable serialization; identical for any worker count."""
        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))

    def to_json(self) -> str:
        doc = self.payload()
        doc["runtime_ms"] = self.runtime_ms
        doc["meta"] = self.meta
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["label,count,freq,ci_lo,ci_hi,prediction,tail_bound,pass"]
        for o in self.outcomes:
            lines.append(
                ",".join(
                    "" if v is None else str(v)
                    for v in (
                        o.label,
                        o.count,
                        o.freq,
                        o.ci_lo,
                        o.ci_hi,
                        o.prediction,
                        o.tail_bound,
                        o.passed,
                    )
                )
            )
        return "\n".join(lines) + "\n"


def wilson_interval(count: int, n: int, confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one observation")
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    phat = count / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _map_trials(trials: int, worker: Callable[[int], object], threads: int) -> List[object]:
    if threads <= 1:
        return [worker(i) for i in range(trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(trials)))


# Rank experiments eliminate up to this many trials as one batch, fewer
# when an odd-p chunk's int64 matrices would pass the byte cap.
_CHUNK_TRIALS = 256
_CHUNK_BYTES = 1 << 24


def _iid_ranks(cfg: ExperimentConfig, m: int, ps: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Per trial, the ranks mod each prime of ps of its n x m iid matrix.

    Trial i draws from the substream derive_seed(master_seed, i) exactly
    as a one-trial-at-a-time loop would; for p = 2 a chunk keeps only the
    packed rows.
    """
    for p in ps:
        if not _primes.is_probable_prime(p):
            raise ValueError(f"{p} is not prime")

    def worker(chunk: range) -> List[Tuple[int, ...]]:
        held = {p: [] for p in ps}
        for i in chunk:
            arr = sample_array(EnsembleSpec(IID_RECT, cfg.n, cfg.dist, derive_seed(cfg.master_seed, i), m=m))
            for p in ps:
                held[p].append(pack_gf2(arr) if p == 2 else arr)
        ranks = [gf2_ranks(held[p], m).tolist() if p == 2 else [rank_mod_p(a, p) for a in held[p]] for p in ps]
        return list(zip(*ranks))

    size = max(1, min(_CHUNK_TRIALS, _CHUNK_BYTES // (8 * cfg.n * m)))
    chunks = [range(s, min(s + size, cfg.trials)) for s in range(0, cfg.trials, size)]
    parts = _map_trials(len(chunks), lambda k: worker(chunks[k]), cfg.threads)
    return [ranks for part in parts for ranks in part]


def _outcome(
    label: str,
    count: int,
    trials: int,
    confidence: float,
    prediction: Optional[Prediction] = None,
    passed: Optional[bool] = None,
    tolerance: Optional[float] = None,
) -> Outcome:
    freq = count / trials
    lo, hi = wilson_interval(count, trials, confidence)
    pred_value = prediction.value if prediction else None
    tail = prediction.truncation_bound if prediction else None
    if passed is None and prediction is not None and tolerance is not None:
        passed = abs(freq - pred_value) <= tolerance
    return Outcome(label, count, round(freq, 12), round(lo, 12), round(hi, 12), pred_value, tail, passed)


# -- concrete experiments ----------------------------------------------------


def run_corank_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical corank distribution mod p for square matrices."""
    if cfg.p is None:
        raise ValueError("corank experiment needs a prime p")
    p = cfg.p
    start = time.perf_counter()
    counts = Counter(cfg.n - r for (r,) in _iid_ranks(cfg, cfg.n, (p,)))
    outcomes = []
    for k in sorted(set(range(min(K_PREDICT, cfg.n) + 1)) | set(counts)):
        pred = corank_prediction(p, k) if k <= K_PREDICT else None
        outcomes.append(
            _outcome(f"corank={k}", counts.get(k, 0), cfg.trials, cfg.confidence, pred, tolerance=cfg.tolerance)
        )
    runtime = (time.perf_counter() - start) * 1000
    return ExperimentReport(cfg.to_dict(), tuple(outcomes), cfg.master_seed, runtime)


def run_trivial_cokernel_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Frequency of trivial cokernel for n x (n+u) matrices.

    mode "all_primes" decides via the certifier; mode "p_restricted"
    checks full rank modulo the configured prime set only, matching the
    finite-P prediction.
    """
    u = cfg.u if cfg.u is not None else 0
    m = cfg.n + u
    start = time.perf_counter()

    if cfg.mode == "p_restricted":
        if not cfg.primes:
            raise ValueError("p_restricted mode needs a prime set")
        ps = tuple(sorted(set(cfg.primes)))
        prediction = trivial_cokernel_prediction(ps, u)
        label = "trivial_p_part"
        results = [all(r == cfg.n for r in ranks) for ranks in _iid_ranks(cfg, m, ps)]
    else:
        def worker(i: int) -> bool:
            spec = EnsembleSpec(IID_RECT, cfg.n, cfg.dist, derive_seed(cfg.master_seed, i), m=m)
            return is_surjective(sample_matrix(spec)).is_surjective

        prediction = trivial_cokernel_all_primes(u)
        label = "trivial"
        results = _map_trials(cfg.trials, worker, cfg.threads)

    count = sum(map(bool, results))
    outcomes = (
        _outcome(label, count, cfg.trials, cfg.confidence, prediction, tolerance=cfg.tolerance),
        _outcome(f"non{label}", cfg.trials - count, cfg.trials, cfg.confidence),
    )
    runtime = (time.perf_counter() - start) * 1000
    return ExperimentReport(cfg.to_dict(), outcomes, cfg.master_seed, runtime)


def run_singularity_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Frequency of singular draws for square matrices.

    mode "det" tests det = 0 exactly (early-exit CRT, so nonsingular
    matrices are cheap); mode "mod_p" counts rank deficiency modulo the
    configured reference prime instead.  The report carries e^(-c alpha n)
    reference curves for a small grid of c.
    """
    start = time.perf_counter()
    alpha = float(alpha_min(cfg.dist))

    if cfg.mode == "mod_p":
        if cfg.p is None:
            raise ValueError("mod_p mode needs a reference prime")
        results = [r < cfg.n for (r,) in _iid_ranks(cfg, cfg.n, (cfg.p,))]
    else:
        def worker(i: int) -> bool:
            spec = EnsembleSpec(IID_RECT, cfg.n, cfg.dist, derive_seed(cfg.master_seed, i), m=cfg.n)
            return det_is_zero(sample_array(spec))

        results = _map_trials(cfg.trials, worker, cfg.threads)

    count = sum(map(bool, results))
    passed = count <= cfg.max_singular if cfg.max_singular is not None else None
    outcomes = (
        _outcome("singular", count, cfg.trials, cfg.confidence, passed=passed),
        _outcome("nonsingular", cfg.trials - count, cfg.trials, cfg.confidence),
    )
    curves = {f"c={c}": math.exp(-c * alpha * cfg.n) for c in (0.25, 0.5, 1.0)}
    runtime = (time.perf_counter() - start) * 1000
    return ExperimentReport(
        cfg.to_dict(), outcomes, cfg.master_seed, runtime, extra={"singularity_curves": curves}
    )


def run_symmetric_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Trivial-cokernel frequency for the symmetric-plus-u-columns model."""
    u = cfg.u
    if u is None:
        u = math.ceil(cfg.b * math.sqrt(cfg.n * math.log(cfg.n)))
    start = time.perf_counter()

    def worker(i: int) -> bool:
        spec = EnsembleSpec(
            SYMMETRIC_PLUS, cfg.n, cfg.dist, derive_seed(cfg.master_seed, i), u=u
        )
        matrix = sample_matrix(spec)
        a = matrix.array
        step = max(1, cfg.n // 8)
        for ii in range(0, cfg.n, step):
            for jj in range(ii, cfg.n, step):
                if a[ii, jj] != a[jj, ii]:
                    raise RuntimeError(f"symmetric sample of trial {i} differs at ({ii}, {jj})")
        return is_surjective(matrix).is_surjective

    results = _map_trials(cfg.trials, worker, cfg.threads)
    count = sum(map(bool, results))
    passed = (count / cfg.trials) >= cfg.min_frequency if cfg.min_frequency is not None else None
    outcomes = (
        _outcome("trivial", count, cfg.trials, cfg.confidence, passed=passed),
        _outcome("nontrivial", cfg.trials - count, cfg.trials, cfg.confidence),
    )
    runtime = (time.perf_counter() - start) * 1000
    report_cfg = cfg.to_dict()
    report_cfg["u"] = u
    return ExperimentReport(report_cfg, outcomes, cfg.master_seed, runtime)


def run_exposure_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Repeated exposure runs; reports the within-budget success rate.

    Each run starts from a square sample with nonzero determinant (a singular
    start is resampled on a derived sub-seed, at most 1000 times per trial).
    """
    alpha = alpha_min(cfg.dist)
    budget = u_budget(cfg.n, alpha, cfg.b)
    start = time.perf_counter()

    def worker(i: int) -> ExposureTrace:
        for attempt in range(1000):
            seed = derive_seed(cfg.master_seed, i * 1000 + attempt)
            spec = EnsembleSpec(IID_RECT, cfg.n, cfg.dist, seed, m=cfg.n)
            try:
                return run_exposure(sample_matrix(spec), cfg.dist, cfg.b, seed=derive_seed(seed, 1), alpha=alpha)
            except SingularStart:
                continue
        raise RuntimeError(f"exposure trial {i}: all 1000 starting matrices were singular")

    traces: List[ExposureTrace] = _map_trials(cfg.trials, worker, cfg.threads)
    within = sum(1 for t in traces if t.achieved and t.total_extra_columns <= budget)
    achieved = sum(1 for t in traces if t.achieved)
    passed = (within / cfg.trials) >= cfg.min_frequency if cfg.min_frequency is not None else None
    outcomes = (
        _outcome("achieved_within_budget", within, cfg.trials, cfg.confidence, passed=passed),
        _outcome("achieved", achieved, cfg.trials, cfg.confidence),
    )
    rows = [t.csv_row() for t in traces]
    runtime = (time.perf_counter() - start) * 1000
    report_cfg = cfg.to_dict()
    report_cfg["u_budget"] = budget
    return ExperimentReport(
        report_cfg,
        outcomes,
        cfg.master_seed,
        runtime,
        extra={"runs": rows},
        artifacts={"traces": traces},
    )


# the modes each experiment accepts; the others accept only "default"
MODES = {TRIVIAL: ("default", "all_primes", "p_restricted"), SINGULARITY: ("default", "det", "mod_p")}

RUNNERS = {
    CORANK: run_corank_experiment,
    TRIVIAL: run_trivial_cokernel_experiment,
    SINGULARITY: run_singularity_experiment,
    EXPOSURE: run_exposure_experiment,
    SYMMETRIC: run_symmetric_experiment,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    try:
        runner = RUNNERS[cfg.experiment]
    except KeyError:
        raise ValueError(f"unknown experiment {cfg.experiment!r}") from None
    if cfg.mode not in MODES.get(cfg.experiment, ("default",)):
        raise ValueError(f"unknown mode {cfg.mode!r} for experiment {cfg.experiment!r}")
    if cfg.primes is not None and (cfg.experiment, cfg.mode) != (TRIVIAL, "p_restricted"):
        raise ValueError("a prime set applies only to the p_restricted trivial experiment")
    return runner(cfg)

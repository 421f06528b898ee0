"""Monte Carlo harness comparing empirical frequencies against predictions.

Trials are independent tasks: trial i draws from the Philox stream
position (master seed, i), with no state shared between trials, and
per-trial results aggregate through a commutative counter, so reports
are identical for any worker count.
Every experiment hands workers chunks of trials; the rank experiments
(corank, p-restricted trivial cokernel, mod-p singularity) draw each chunk
as one stack and eliminate it as one batch, bit-packed for p = 2, and the
others run its trials one by one.  The canonical report serialization deliberately excludes
wall-clock time and worker metadata; those live in a side "meta" block of
the written file.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from statistics import NormalDist
from typing import Callable, List, Optional, Tuple

import numpy as np

from .certifier import is_surjective
from .ensembles import (
    IID_RECT,
    SYMMETRIC_PLUS,
    Distribution,
    EnsembleSpec,
    alpha_min,
    check_seed,
    sample_array,
    sample_iid_stack,
    sample_matrix,
)
from .exact_linalg import _STACK_BYTES, det_is_zero
from .exposure import ExposureTrace, SingularStart, run_exposure, u_budget
from .modp import gf2_ranks, pack_gf2, rank_mod_p
from .predictions import (
    Prediction,
    corank_prediction,
    trivial_cokernel_all_primes,
    trivial_cokernel_prediction,
)
from . import primes as _primes

# Never called here.  The benchmark's per-layer trace still wraps this name
# in this module, and its tests expect the span to exist.
from .ensembles import derive_seed  # noqa: F401

CORANK = "corank_dist"
TRIVIAL = "trivial_cokernel"
SINGULARITY = "singularity"
EXPOSURE = "exposure"
SYMMETRIC = "symmetric"

# corank outcomes up to this k carry a prediction
K_PREDICT = 8
# confidence level of every outcome's Wilson interval
CONFIDENCE = 0.95


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
    min_frequency: Optional[float] = None
    max_singular: Optional[int] = None
    threads: int = 1

    def __post_init__(self) -> None:
        check_seed(self.master_seed)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if not 0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and non-negative, got {self.tolerance}")

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "n": self.n,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "dist": self.dist.literal(),
            "mode": self.mode,
            "tolerance": self.tolerance,
            "confidence": CONFIDENCE,
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
        """The fields in declaration order, with passed serialized as "pass"."""
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


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
            lines.append(",".join("" if v is None else str(v) for v in o.to_dict().values()))
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=8)
def _normal_quantile(confidence: float) -> float:
    """The two-sided standard normal quantile of a confidence level."""
    return NormalDist().inv_cdf(0.5 + confidence / 2)


def wilson_interval(count: int, n: int, confidence: float = CONFIDENCE) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one observation")
    z = _normal_quantile(confidence)
    phat = count / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# Every experiment runs its trials in chunks of up to this many, fewer when
# a chunk's int64 matrices would pass the stack cap or when fewer chunks than
# worker threads would result.
_CHUNK_TRIALS = 256


def _map_chunks(cfg: ExperimentConfig, m: int, per_chunk: Callable[[range], List]) -> List:
    """per_chunk's per-trial results over every chunk of cfg's trials, in
    trial order.  Chunks of n x m trials are cut for cfg.threads workers, so
    reports do not depend on the machine, but no more threads start than
    there are CPUs or chunks."""
    size = max(1, min(_CHUNK_TRIALS, _STACK_BYTES // (8 * cfg.n * m), math.ceil(cfg.trials / cfg.threads)))
    chunks = [range(s, min(s + size, cfg.trials)) for s in range(0, cfg.trials, size)]
    workers = min(cfg.threads, len(chunks))
    if workers > 1:  # the CPU count is read only when threads could start
        workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        parts = [per_chunk(chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(per_chunk, chunks))
    return [result for part in parts for result in part]


def _spec(cfg: ExperimentConfig, index: int, kind: str = IID_RECT, **fields) -> EnsembleSpec:
    """The matrix of trial `index`, read from the Philox position (master_seed, index);
    `fields` sets the shape and the attempt."""
    return EnsembleSpec(kind, cfg.n, cfg.dist, cfg.master_seed, trial=index, **fields)


def _iid_ranks(cfg: ExperimentConfig, m: int, ps: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Per trial, the ranks mod each prime of ps of its n x m iid matrix.

    A chunk is drawn as one stack, trial i from the Philox position
    (master_seed, i) exactly as a one-trial-at-a-time loop would, and
    eliminated as one batch.  For p = 2 alone the stack holds parities,
    packed once; odd primes read the values.
    """
    for p in ps:
        if not _primes.is_probable_prime(p):
            raise ValueError(f"{p} is not prime")

    def per_chunk(chunk: range) -> List[Tuple[int, ...]]:
        stack = sample_iid_stack(cfg.dist, cfg.n, m, cfg.master_seed, chunk, parities=ps == (2,))
        ranks = [gf2_ranks(pack_gf2(stack), m).tolist() if p == 2 else [rank_mod_p(a, p) for a in stack] for p in ps]
        return list(zip(*ranks))

    return _map_chunks(cfg, m, per_chunk)


def _outcome(
    cfg: ExperimentConfig, label: str, count: int, prediction: Optional[Prediction] = None, passed: Optional[bool] = None
) -> Outcome:
    """An outcome of cfg's trials; one with a prediction passes within cfg.tolerance of it."""
    freq = count / cfg.trials
    lo, hi = wilson_interval(count, cfg.trials)
    pred_value = prediction.value if prediction else None
    tail = prediction.truncation_bound if prediction else None
    if passed is None and prediction is not None:
        passed = abs(freq - pred_value) <= cfg.tolerance
    return Outcome(label, count, round(freq, 12), round(lo, 12), round(hi, 12), pred_value, tail, passed)


def _pair(
    cfg: ExperimentConfig, label: str, count: int, prediction: Optional[Prediction] = None, passed: Optional[bool] = None
) -> Tuple[Outcome, Outcome]:
    """The outcome label of count trials and its complement "non" + label."""
    return _outcome(cfg, label, count, prediction, passed), _outcome(cfg, f"non{label}", cfg.trials - count)


@dataclass(frozen=True)
class _Run:
    """What a runner found; run_experiment adds the config, seed and time."""

    outcomes: Tuple[Outcome, ...]
    config: dict = field(default_factory=dict)  # values the runner resolved
    extra: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)


# -- concrete experiments ----------------------------------------------------


def run_corank_experiment(cfg: ExperimentConfig) -> _Run:
    """Empirical corank distribution mod p for square matrices."""
    if cfg.p is None:
        raise ValueError("corank experiment needs a prime p")
    counts = Counter(cfg.n - r for (r,) in _iid_ranks(cfg, cfg.n, (cfg.p,)))
    ks = sorted(set(range(min(K_PREDICT, cfg.n) + 1)) | set(counts))
    return _Run(
        tuple(
            _outcome(cfg, f"corank={k}", counts.get(k, 0), corank_prediction(cfg.p, k) if k <= K_PREDICT else None)
            for k in ks
        )
    )


def run_trivial_cokernel_experiment(cfg: ExperimentConfig) -> _Run:
    """Frequency of trivial cokernel for n x (n+u) matrices.

    mode "all_primes" decides via the certifier; mode "p_restricted"
    checks full rank modulo the configured prime set only, matching the
    finite-P prediction.
    """
    u = cfg.u if cfg.u is not None else 0
    m = cfg.n + u

    if cfg.mode == "p_restricted":
        if not cfg.primes:
            raise ValueError("p_restricted mode needs a prime set")
        ps = tuple(sorted(set(cfg.primes)))
        results = [all(r == cfg.n for r in ranks) for ranks in _iid_ranks(cfg, m, ps)]
        return _Run(_pair(cfg, "trivial_p_part", sum(results), trivial_cokernel_prediction(ps, u)))

    def per_chunk(chunk: range) -> List[bool]:
        return [is_surjective(sample_matrix(_spec(cfg, i, m=m))).is_surjective for i in chunk]

    results = _map_chunks(cfg, m, per_chunk)
    return _Run(_pair(cfg, "trivial", sum(results), trivial_cokernel_all_primes(u)))


def run_singularity_experiment(cfg: ExperimentConfig) -> _Run:
    """Frequency of singular draws for square matrices.

    mode "det" tests det = 0 exactly (early-exit CRT, so nonsingular
    matrices are cheap); mode "mod_p" counts rank deficiency modulo the
    configured reference prime instead.  The report carries e^(-c alpha n)
    reference curves for a small grid of c.
    """
    alpha = float(alpha_min(cfg.dist))

    if cfg.mode == "mod_p":
        if cfg.p is None:
            raise ValueError("mod_p mode needs a reference prime")
        results = [r < cfg.n for (r,) in _iid_ranks(cfg, cfg.n, (cfg.p,))]
    else:
        results = _map_chunks(cfg, cfg.n, lambda chunk: [det_is_zero(sample_array(_spec(cfg, i))) for i in chunk])

    count = sum(results)
    passed = count <= cfg.max_singular if cfg.max_singular is not None else None
    curves = {f"c={c}": math.exp(-c * alpha * cfg.n) for c in (0.25, 0.5, 1.0)}
    return _Run(_pair(cfg, "singular", count, passed=passed), extra={"singularity_curves": curves})


def run_symmetric_experiment(cfg: ExperimentConfig) -> _Run:
    """Trivial-cokernel frequency for the symmetric-plus-u-columns model."""
    u = cfg.u
    if u is None:
        u = math.ceil(cfg.b * math.sqrt(cfg.n * math.log(cfg.n)))

    def trial(i: int) -> bool:
        matrix = sample_matrix(_spec(cfg, i, SYMMETRIC_PLUS, u=u))
        a = matrix.array
        step = max(1, cfg.n // 8)
        for ii in range(0, cfg.n, step):
            for jj in range(ii, cfg.n, step):
                if a[ii, jj] != a[jj, ii]:
                    raise RuntimeError(f"symmetric sample of trial {i} differs at ({ii}, {jj})")
        return is_surjective(matrix).is_surjective

    count = sum(_map_chunks(cfg, cfg.n + u, lambda chunk: [trial(i) for i in chunk]))
    passed = (count / cfg.trials) >= cfg.min_frequency if cfg.min_frequency is not None else None
    return _Run(_pair(cfg, "trivial", count, passed=passed), config={"u": u})


def run_exposure_experiment(cfg: ExperimentConfig) -> _Run:
    """Repeated exposure runs; reports the within-budget success rate.

    Each run starts from a square sample with nonzero determinant; a
    singular start is resampled as the next attempt a of the trial, at
    most 1000 times, and attempt a draws its start and its column batches
    from the streams of (master_seed, i, a).  The report's `attempts`
    lists a per trial, since its `runs` rows carry only the master seed.
    """
    alpha = alpha_min(cfg.dist)
    budget = u_budget(cfg.n, alpha, cfg.b)

    def trial(i: int) -> ExposureTrace:
        for attempt in range(1000):
            m0 = sample_matrix(_spec(cfg, i, attempt=attempt))
            try:
                return run_exposure(m0, cfg.dist, cfg.b, cfg.master_seed, alpha, trial=i, attempt=attempt)
            except SingularStart:
                continue
        raise RuntimeError(f"exposure trial {i}: all 1000 starting matrices were singular")

    traces: List[ExposureTrace] = _map_chunks(cfg, cfg.n, lambda chunk: [trial(i) for i in chunk])
    within = sum(1 for t in traces if t.achieved and t.total_extra_columns <= budget)
    achieved = sum(1 for t in traces if t.achieved)
    passed = (within / cfg.trials) >= cfg.min_frequency if cfg.min_frequency is not None else None
    return _Run(
        (_outcome(cfg, "achieved_within_budget", within, passed=passed), _outcome(cfg, "achieved", achieved)),
        config={"u_budget": budget},
        extra={"runs": [t.csv_row() for t in traces], "attempts": [t.attempt for t in traces]},
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
    start = time.perf_counter()
    run = runner(cfg)
    runtime = (time.perf_counter() - start) * 1000
    config = {**cfg.to_dict(), **run.config}
    return ExperimentReport(config, run.outcomes, cfg.master_seed, runtime, run.extra, artifacts=run.artifacts)

"""Incremental column-exposure simulation.

Starting from a square integer matrix, fresh iid columns are appended in
batches until the column space is full modulo every tracked prime (the
prime divisors of the starting determinant, or an explicit list).  Batch
sizes follow the ceil(B*log n / (alpha * d)) schedule, where d is the
smallest positive corank among the tracked primes, so each batch is large
enough for every prime still missing dimensions.  Each batch extends each
prime's :class:`~latsurj.modp.ColumnSpace` (the annihilator of the columns
so far) once, as one int64 block.  All logarithms here are
natural; the schedule constant B absorbs the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import primes as _primes
from .ensembles import Distribution, _generator, alpha_min, sample_columns
from .exact_linalg import IntMatrix, det, smith_diagonal
from .modp import ColumnSpace

DIVISORS_OF_DET = "divisors_of_det"
EXPLICIT = "explicit"

DEFAULT_CAP_FACTOR = 10


def batch_size(n: int, alpha: Fraction | float, b: float, d_prev: int) -> int:
    """ceil(B log n / (alpha * d_prev)), never below 1."""
    if d_prev < 1:
        raise ValueError("d_prev must be at least 1")
    a = float(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    return max(1, math.ceil(b * math.log(n) / (a * d_prev)))


def u_budget(n: int, alpha: Fraction | float, b: float, simple: bool = False) -> int:
    """Extra-column budget.

    Default: floor(B * ((log n / alpha) * log(log n / alpha) + log n)).
    The `simple` variant is floor(B * log^2 n / alpha + sqrt(n log n / alpha)),
    which never drops below sqrt(n log n).
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    a = float(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    ln = math.log(n)
    if simple:
        return math.floor(b * ln * ln / a + math.sqrt(n * ln / a))
    ratio = ln / a
    return math.floor(b * (ratio * math.log(ratio) + ln))


@dataclass(frozen=True)
class ExposureTrace:
    """Record of one exposure run.

    Corank trajectories are indexed per batch: trajectory[p][0] is the
    initial corank and trajectory[p][i] the corank after batch i.
    batch_d_prev[i] is the minimum positive corank that sized batch i+1.
    """

    primes: Tuple[int, ...]
    trajectories: Dict[int, Tuple[int, ...]]
    batch_sizes: Tuple[int, ...]
    batch_d_prev: Tuple[int, ...]
    total_extra_columns: int
    achieved: bool
    cap: int
    seed: int
    alpha: Fraction
    b: float
    final_matrix: IntMatrix

    def initial_coranks(self) -> Dict[int, int]:
        return {p: traj[0] for p, traj in self.trajectories.items()}

    def csv_row(self) -> str:
        d0 = ";".join(f"{p}:{traj[0]}" for p, traj in sorted(self.trajectories.items()))
        return ",".join(
            [
                str(self.seed),
                d0 or "-",
                str(len(self.batch_sizes)),
                str(self.total_extra_columns),
                str(int(self.achieved)),
            ]
        )


def _tracked_primes(m0: IntMatrix) -> Tuple[int, ...]:
    """Prime divisors of det(m0); falls back to factoring the Smith
    diagonal when the determinant itself resists the budget."""
    d = det(m0)
    if d == 0:
        raise ValueError("exposure from a singular matrix needs an explicit prime list")
    try:
        return tuple(sorted(_primes.prime_divisors(d)))
    except _primes.FactorizationError:
        primes: set[int] = set()
        for factor in smith_diagonal(m0):
            if abs(factor) > 1:
                primes |= _primes.prime_divisors(factor)
        return tuple(sorted(primes))


def run_exposure(
    m0: IntMatrix,
    dist: Distribution,
    b: float,
    seed: int,
    prime_source: str = DIVISORS_OF_DET,
    primes: Optional[Sequence[int]] = None,
    alpha: Optional[Fraction] = None,
    cap_factor: int = DEFAULT_CAP_FACTOR,
) -> ExposureTrace:
    """Simulate the exposure process from square m0.

    Each batch samples k fresh columns from dist; the same physical
    columns update every tracked prime's column space.  The run stops when
    all coranks hit zero or the next batch would exceed the hard cap of
    cap_factor * u_budget extra columns.
    """
    if not m0.is_square:
        raise ValueError("exposure starts from a square matrix")
    n = m0.rows
    a = alpha if alpha is not None else alpha_min(dist)
    if a <= 0:
        raise ValueError("distribution is degenerate (alpha = 0)")

    if prime_source == DIVISORS_OF_DET:
        tracked = _tracked_primes(m0)
    elif prime_source == EXPLICIT:
        if not primes:
            raise ValueError("explicit prime source needs a prime list")
        tracked = tuple(sorted(set(primes)))
    else:
        raise ValueError(f"unknown prime source {prime_source!r}")

    spaces: Dict[int, ColumnSpace] = {
        p: ColumnSpace.from_columns(p, m0.array.T, n) for p in tracked
    }
    coranks: Dict[int, int] = {p: n - spaces[p].dimension for p in tracked}
    trajectories: Dict[int, List[int]] = {p: [coranks[p]] for p in tracked}

    cap = cap_factor * u_budget(n, a, b) if n >= 3 else cap_factor
    gen = _generator(seed)
    batch_sizes: List[int] = []
    batch_d_prev: List[int] = []
    blocks: List[np.ndarray] = []
    consumed = 0

    while any(d > 0 for d in coranks.values()):
        d_prev = min(d for d in coranks.values() if d > 0)
        k = batch_size(n, a, b, d_prev)
        if consumed + k > cap:
            break
        batch_d_prev.append(d_prev)
        batch_sizes.append(k)
        block = sample_columns(dist, n, k, gen)
        blocks.append(block)
        for p in tracked:
            if coranks[p] > 0:
                spaces[p] = spaces[p].extend(block)
                coranks[p] = n - spaces[p].dimension
        consumed += k
        for p in tracked:
            trajectories[p].append(coranks[p])

    final = m0
    if blocks:
        final = IntMatrix.from_array(np.hstack([m0.array, *blocks]))
    return ExposureTrace(
        primes=tracked,
        trajectories={p: tuple(t) for p, t in trajectories.items()},
        batch_sizes=tuple(batch_sizes),
        batch_d_prev=tuple(batch_d_prev),
        total_extra_columns=consumed,
        achieved=all(d == 0 for d in coranks.values()),
        cap=cap,
        seed=seed,
        alpha=Fraction(a),
        b=b,
        final_matrix=final,
    )

"""Incremental column-exposure simulation.

Starting from a square integer matrix, fresh iid columns are appended in
batches until the column space is full modulo every tracked prime, the
prime divisors of the starting determinant.  Batch sizes follow the
ceil(B*log n / (alpha * d)) schedule, where d is the smallest positive
corank among the tracked primes, so each batch is large enough for every
prime still missing dimensions.  Each batch extends each prime's
:class:`~latsurj.modp.ColumnSpace` (the annihilator of the columns so
far) once, as one int64 block; the starting span is a row of adj(m0)
wherever it can be.  All logarithms here are natural; the schedule
constant B absorbs the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import primes as _primes
from .ensembles import Distribution, _generator, alpha_min, sample_columns
from .exact_linalg import IntMatrix, adjugate_rows
from .modp import ColumnSpace

# Never called here.  The benchmark's per-layer trace still wraps this name
# in this module, and its tests expect the span to exist.
from .exact_linalg import det  # noqa: F401

CAP_FACTOR = 10


def batch_size(n: int, alpha: Fraction | float, b: float, d_prev: int) -> int:
    """ceil(B log n / (alpha * d_prev)), never below 1."""
    if d_prev < 1:
        raise ValueError("d_prev must be at least 1")
    a = float(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    return max(1, math.ceil(b * math.log(n) / (a * d_prev)))


def u_budget(n: int, alpha: Fraction | float, b: float) -> int:
    """Extra-column budget floor(B * ((log n / alpha) * log(log n / alpha) + log n))."""
    if n < 3:
        raise ValueError("n must be at least 3")
    a = float(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    ln = math.log(n)
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


class SingularStart(ValueError):
    """det(m0) = 0: a start with no prime divisors to track."""


def _start_space(p: int, m0: IntMatrix, rows: np.ndarray) -> ColumnSpace:
    """The span of the columns of m0 mod p, given rows of adj(m0) when p
    divides det(m0).  A row w of adj(m0) has w m0 = det(m0) e_j = 0 mod p,
    and w != 0 mod p rules out corank 2 or more, under which every
    (n-1)-minor vanishes: [w] is then the whole annihilator."""
    for w in rows % p:
        if w.any():
            return ColumnSpace.from_annihilator(p, w[None])
    return ColumnSpace.from_columns(p, m0.array.T, m0.rows)


def run_exposure(
    m0: IntMatrix,
    dist: Distribution,
    b: float,
    seed: int,
    alpha: Optional[Fraction] = None,
) -> ExposureTrace:
    """Simulate the exposure process from square m0.

    The tracked primes are the prime divisors of det(m0); a
    FactorizationError from a determinant that resists the factoring
    budget propagates.  Each batch samples k fresh columns from dist; the
    same physical columns update every tracked prime's column space.  The run stops when all coranks hit zero or the next batch
    would exceed the hard cap of CAP_FACTOR * u_budget extra columns.
    """
    if not m0.is_square:
        raise ValueError("exposure starts from a square matrix")
    n = m0.rows
    a = alpha if alpha is not None else alpha_min(dist)
    if a <= 0:
        raise ValueError("distribution is degenerate (alpha = 0)")

    d, rows = adjugate_rows(m0.array)
    if d == 0:
        raise SingularStart("exposure needs a nonsingular start: det(m0) = 0 has no prime divisors to track")
    tracked = tuple(sorted(_primes.prime_divisors(d)))

    spaces = {p: _start_space(p, m0, rows) for p in tracked}
    coranks: Dict[int, int] = {p: n - spaces[p].dimension for p in tracked}
    trajectories: Dict[int, List[int]] = {p: [coranks[p]] for p in tracked}

    cap = CAP_FACTOR * u_budget(n, a, b) if n >= 3 else CAP_FACTOR
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

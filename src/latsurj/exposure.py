"""Incremental column-exposure simulation.

Starting from a square integer matrix m0, fresh iid columns are appended
in batches until the column space is full modulo every prime of
N = |det(m0)|.  N is never factored: it is tracked as pairwise coprime
parts q, each with one :class:`~latsurj.modp.ColumnSpace` over Z/q (the
annihilator of the columns so far).  While every pivot is a unit modulo
q, the corank is the same modulo every prime of q; a zero divisor splits
q by a gcd (:func:`~latsurj.modp.parts`), and each new part carries on
from the annihilator and the trajectory so far.  Batch sizes follow the
ceil(B*log n / (alpha * d)) schedule, where d is the smallest positive
corank among the parts, so each batch is large enough for every prime
still missing dimensions.  Each batch extends each part's column space
once, as one block; the starting span is a row of adj(m0) wherever it
can be.  All logarithms here are natural; the schedule constant B
absorbs the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ensembles import Distribution, alpha_min, check_position, sample_columns
from .exact_linalg import IntMatrix, adjugate_rows
from .modp import ColumnSpace, NonUnitPivot, parts

# Never called here.  The benchmark's per-layer trace still wraps this name
# in this module, and its tests expect the span to exist.
from .exact_linalg import det  # noqa: F401

CAP_FACTOR = 10


def _checked_alpha(alpha: Fraction | float, b: float) -> float:
    """alpha as a float, once the schedule's alpha > 0 and B > 0 are checked."""
    a = float(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    if not b > 0:
        raise ValueError(f"B must be positive, got {b}")
    return a


def batch_size(n: int, alpha: Fraction | float, b: float, d_prev: int) -> int:
    """ceil(B log n / (alpha * d_prev)), never below 1."""
    if d_prev < 1:
        raise ValueError("d_prev must be at least 1")
    return max(1, math.ceil(b * math.log(n) / (_checked_alpha(alpha, b) * d_prev)))


def u_budget(n: int, alpha: Fraction | float, b: float) -> int:
    """Extra-column budget floor(B * ((log n / alpha) * log(log n / alpha) + log n))."""
    if n < 3:
        raise ValueError("n must be at least 3")
    ln = math.log(n)
    ratio = ln / _checked_alpha(alpha, b)
    return math.floor(b * (ratio * math.log(ratio) + ln))


@dataclass(frozen=True)
class ExposureTrace:
    """Record of one exposure run.

    `primes` holds the tracked moduli, ascending: pairwise coprime parts
    of |det(m0)| whose primes are exactly those of det(m0).  Corank
    trajectories are indexed per batch and hold modulo every prime of
    their modulus q: trajectory[q][0] is the initial corank and
    trajectory[q][i] the corank after batch i.  batch_d_prev[i] is the
    minimum positive corank that sized batch i+1.  Batch i drew its
    columns from stream 1 + i of (seed, trial, attempt).
    """

    primes: Tuple[int, ...]
    trajectories: Dict[int, Tuple[int, ...]]
    batch_sizes: Tuple[int, ...]
    batch_d_prev: Tuple[int, ...]
    total_extra_columns: int
    achieved: bool
    seed: int
    trial: int
    attempt: int
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


def _start_space(q: int, m0: IntMatrix, rows: np.ndarray) -> ColumnSpace:
    """The span of the columns of m0 over Z/q, q a part of det(m0), given
    rows of adj(m0).  A row w of adj(m0) has w m0 = det(m0) e_j = 0 mod q,
    and gcd(q, w) = 1 makes w nonzero modulo every prime of q, which rules
    out corank 2 or more there, under which every (n-1)-minor vanishes:
    [w] is then the whole annihilator.  A gcd strictly between 1 and q
    splits q (NonUnitPivot); where every row vanishes modulo q, m0 is
    eliminated."""
    for w in rows % q:
        common = math.gcd(q, *w.tolist())
        if common == 1:
            return ColumnSpace.from_annihilator(q, w[None])
        if common < q:
            raise NonUnitPivot(common)
    return ColumnSpace.from_columns(q, m0.array.T, m0.rows)


def run_exposure(
    m0: IntMatrix,
    dist: Distribution,
    b: float,
    seed: int,
    alpha: Optional[Fraction] = None,
    trial: int = 0,
    attempt: int = 0,
) -> ExposureTrace:
    """Simulate the exposure process from square m0.

    The tracked moduli are the parts of |det(m0)|, split by gcds only.
    Batch i samples k fresh columns from dist on stream 1 + i of
    (seed, trial, attempt); the same physical columns extend every
    part's column space that still has positive corank, and a part
    whose extension meets a zero divisor is replaced by its own parts,
    each extending the old annihilator taken modulo itself.  The run
    stops when all coranks hit zero or the next batch would exceed the
    hard cap of CAP_FACTOR * u_budget extra columns.
    """
    check_position(seed, trial, attempt)
    if not m0.is_square:
        raise ValueError("exposure starts from a square matrix")
    n = m0.rows
    a = alpha if alpha is not None else alpha_min(dist)
    if a <= 0:
        raise ValueError("distribution is degenerate (alpha = 0)")

    d, rows = adjugate_rows(m0.array)
    if d == 0:
        raise SingularStart("exposure needs a nonsingular start: det(m0) = 0 has no prime divisors to track")
    spaces = dict(parts(abs(d), lambda q: _start_space(q, m0, rows)))
    trajectories: Dict[int, List[int]] = {q: [n - space.dimension] for q, space in spaces.items()}

    cap = CAP_FACTOR * u_budget(n, a, b) if n >= 3 else CAP_FACTOR
    batch_sizes: List[int] = []
    batch_d_prev: List[int] = []
    blocks: List[np.ndarray] = []
    consumed = 0

    while any(traj[-1] for traj in trajectories.values()):
        d_prev = min(traj[-1] for traj in trajectories.values() if traj[-1])
        k = batch_size(n, a, b, d_prev)
        if consumed + k > cap:
            break
        batch_d_prev.append(d_prev)
        batch_sizes.append(k)
        block = sample_columns(dist, n, k, seed, trial, attempt, len(blocks))
        blocks.append(block)
        for q, space in list(spaces.items()):
            if space.dimension == n:
                trajectories[q].append(0)
                continue
            del spaces[q]
            history = trajectories.pop(q)
            for r, grown in parts(q, lambda r: ColumnSpace.from_annihilator(r, space.annihilator).extend(block)):
                spaces[r] = grown
                trajectories[r] = history + [n - grown.dimension]
        consumed += k

    final = m0
    if blocks:
        final = IntMatrix.from_array(np.hstack([m0.array, *blocks]))
    return ExposureTrace(
        primes=tuple(sorted(spaces)),
        trajectories={q: tuple(trajectories[q]) for q in sorted(trajectories)},
        batch_sizes=tuple(batch_sizes),
        batch_d_prev=tuple(batch_d_prev),
        total_extra_columns=consumed,
        achieved=not any(traj[-1] for traj in trajectories.values()),
        seed=seed,
        trial=trial,
        attempt=attempt,
        final_matrix=final,
    )

"""Finite-support integer distributions and seeded matrix samplers.

Weights are exact rationals so balance parameters, convolutions, and the
enumeration oracles in the tests stay exact.  Sampling draws a uniform
integer digit below the common denominator d (at most 2^63) and maps it
to the atom whose cumulative weight first exceeds it, so no floating
point enters the stream.  Digits come exactly from the narrowest 8-, 16-,
32- or 64-bit fields of raw Philox4x64 words that hold them, by
rejection.  Every draw is a counter position: the seed keys the
generator, and (stream, trial, attempt) fill the high counter words, so
trial i of a report is recoverable from (master seed, i) alone and
parallel experiments are order-independent.  One path serves every
sampler: each position's raw fields fill one row of a buffer, rejected
fields are refilled from the same stream, and the whole buffer maps to
values at once, through a table of every field up to 16 bits and a
binary search above.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from . import primes as _primes
from .exact_linalg import IntMatrix
from .modp import NonUnitPivot, parts

IID_RECT = "iid_rect"
SYMMETRIC_PLUS = "symmetric_plus"


@dataclass(frozen=True)
class Distribution:
    """Integer-valued law with exact rational weights summing to 1."""

    atoms: Tuple[Tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        atoms = tuple(sorted((int(v), Fraction(w)) for v, w in self.atoms))
        object.__setattr__(self, "atoms", atoms)
        values = [v for v, _ in atoms]
        if len(set(values)) != len(values):
            raise ValueError("atom values must be distinct")
        if not atoms:
            raise ValueError("empty distribution")
        if any(w <= 0 or w > 1 for _, w in atoms):
            raise ValueError("weights must lie in (0, 1]")
        if sum(w for _, w in atoms) != 1:
            raise ValueError("weights must sum to exactly 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, Fraction]]) -> "Distribution":
        return cls(tuple(pairs))

    @classmethod
    def uniform(cls, values: Sequence[int]) -> "Distribution":
        vals = list(values)
        return cls(tuple((v, Fraction(1, len(vals))) for v in vals))

    @property
    def values(self) -> Tuple[int, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def weights(self) -> Tuple[Fraction, ...]:
        return tuple(w for _, w in self.atoms)

    @property
    def max_weight(self) -> Fraction:
        return max(self.weights)

    @property
    def is_degenerate(self) -> bool:
        return len(self.atoms) == 1

    @cached_property
    def common_denominator(self) -> int:
        return math.lcm(*(w.denominator for w in self.weights))

    @cached_property
    def _sampler(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """(w, values, cuts): the raw field width _field_bits(d) of digits
        below the common denominator d, and their map to atoms: digit t
        draws values[i], where i counts the cuts (cumulative numerators) at
        most t.  A value of 2^62 or more in absolute value is an OverflowError."""
        if any(abs(v) >= 2**62 for v in self.values):
            raise OverflowError("support does not fit the array sampler")
        d = self.common_denominator
        if d > 2**63:
            raise ValueError(f"weight denominator {d} exceeds the sampler's limit of 2^63")
        cuts = np.cumsum([int(w * d) for w in self.weights[:-1]], dtype=np.int64)
        return _field_bits(d), np.array(self.values, dtype=np.int64), cuts

    def _field_values(self, fields: np.ndarray) -> np.ndarray:
        """The int64 value of each accepted raw w-bit field: its digit
        under _accept, mapped to its atom."""
        w, values, cuts = self._sampler
        digits = _accept(fields, self.common_denominator, w)[0]
        return values[np.searchsorted(cuts, digits.astype(np.int64), side="right")]

    @cached_property
    def _field_tables(self) -> Tuple[np.ndarray, np.ndarray] | None:
        """(values, parities) of every raw w-bit field when w <= 16: the
        int64 value each field draws and its low bit as uint8.  None for
        wider fields."""
        w = self._sampler[0]
        if w > 16:
            return None
        values = self._field_values(np.arange(2**w, dtype=f"u{w // 8}"))
        return values, (values & 1).astype(np.uint8)

    def literal(self) -> str:
        """Canonical config-file / CLI literal, e.g. "0:9/10,1:1/10"."""
        return ",".join(f"{v}:{w.numerator}/{w.denominator}" for v, w in self.atoms)


def sparse_bernoulli(alpha: Fraction | int | str) -> Distribution:
    """The {0,1} law with P(1) = alpha."""
    a = Fraction(alpha)
    if not 0 < a < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return Distribution(((0, 1 - a), (1, a)))


def _class_alpha(dist: Distribution, q: int) -> Fraction:
    """1 minus the largest residue-class mass of dist mod q."""
    masses: Dict[int, Fraction] = {}
    for v, w in dist.atoms:
        masses[v % q] = masses.get(v % q, Fraction(0)) + w
    return 1 - max(masses.values())


def alpha_mod_p(dist: Distribution, p: int) -> Fraction:
    """1 minus the largest residue-class mass of dist mod p."""
    if not _primes.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return _class_alpha(dist, p)


def alpha_min(dist: Distribution) -> Fraction:
    """Balance parameter: the minimum of alpha_mod_p over all primes.

    Only primes dividing some difference of support values can merge
    distinct atoms; every other prime yields 1 - max single weight.  The
    lcm of the differences is split into pairwise coprime parts q by gcds
    (:func:`~latsurj.modp.parts`), never factored: a difference sharing
    a proper factor with q splits q, so on a part that survives each
    difference is 0 or a unit modulo q, and the classes mod q are those
    mod every prime of q.  A single-atom law is degenerate and reports 0.
    """
    if dist.is_degenerate:
        return Fraction(0)
    differences = [v - u for u, v in itertools.combinations(dist.values, 2)]

    def attempt(q: int) -> Fraction:
        for delta in differences:
            common = math.gcd(delta, q)
            if 1 < common < q:
                raise NonUnitPivot(common)
        return _class_alpha(dist, q)

    return min([1 - dist.max_weight] + [a for _, a in parts(math.lcm(*differences), attempt)])


# -- distribution literals ----------------------------------------------

_BERNOULLI_RE = re.compile(r"^bernoulli\((.+)\)$")


def parse_weight(text: str, option: str) -> Fraction:
    """The weight `text` given to the command-line option `option` as a
    Fraction; a zero denominator is a ValueError naming both."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{option}: weight {text.strip()!r} has a zero denominator") from None


def parse_distribution(text: str) -> Distribution:
    """Parse a distribution literal.

    Accepted forms: "0:9/10,1:1/10" (value:weight pairs), "uniform01",
    "uniform-1,0,1" (uniform on the listed values), "bernoulli(1/10)".
    """
    s = text.strip()
    if s == "uniform01":
        return Distribution.uniform([0, 1])
    m = _BERNOULLI_RE.match(s)
    if m:
        return sparse_bernoulli(parse_weight(m.group(1), "--dist"))
    if s.startswith("uniform"):
        rest = s[len("uniform") :]
        values = [int(t) for t in rest.split(",") if t != ""]
        if not values:
            raise ValueError(f"no values in uniform literal {text!r}")
        return Distribution.uniform(values)
    pairs = []
    for part in s.split(","):
        if ":" not in part:
            raise ValueError(f"bad atom {part!r} in distribution literal")
        v, w = part.split(":", 1)
        pairs.append((int(v), parse_weight(w, "--dist")))
    return Distribution(tuple(pairs))


# -- seeded sampling -----------------------------------------------------
#
# A seed keys Philox4x64 (Salmon et al., SC 2011) with a 128-bit hash of
# itself, and a draw reads the counter words [block, stream, trial, attempt]:
# stream 0 is a trial's matrix, stream 1 + j the j-th column batch of an
# exposure run, and the block word counts up within the draw, so no two
# draws of a seed ever read the same counter block.  Each thread keeps one
# Philox and sets its whole state before every draw, so no draw depends on
# what the thread drew before.

MATRIX_STREAM = 0
_local = threading.local()


def check_seed(value: object, name: str = "seed") -> None:
    """Reject anything but a non-negative int (bools included) as the
    stream coordinate `name`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def check_position(seed: object, trial: object, attempt: object) -> None:
    """check_seed on each coordinate of a stream position."""
    check_seed(seed)
    check_seed(trial, "trial")
    check_seed(attempt, "attempt")


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit seed hashed from (master seed, index)."""
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


@lru_cache(maxsize=64)
def _philox_key(seed: int) -> Tuple[int, int]:
    """The 128-bit key of a seed, hashed once per seed, not per trial."""
    return tuple(int(word) for word in np.random.SeedSequence(seed).generate_state(2, np.uint64))


def _stream(seed: int, stream: int, trial: int, attempt: int) -> np.random.Philox:
    """This thread's Philox, positioned at the first block of the draw
    (seed, stream, trial, attempt)."""
    bits = getattr(_local, "philox", None)
    if bits is None:
        bits = _local.philox = np.random.Philox(0)
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, stream, trial, attempt], "key": _philox_key(seed)},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bits


def _field_bits(d: int) -> int:
    """The narrowest raw field width w in {8, 16, 32, 64} with 2^w >= d."""
    bits = (d - 1).bit_length()
    return 8 if bits <= 8 else 16 if bits <= 16 else 32 if bits <= 32 else 64


def _accept(fields: np.ndarray, d: int, w: int) -> Tuple[np.ndarray, np.ndarray | None]:
    """(digits, accepted) of w-bit fields under the exact rule below d;
    accepted is None when d divides 2^w and every field is accepted.

    Up to 32 bits this is Lemire's multiply-shift (ACM TOMACS 2019): with
    m = u*d, a field is accepted unless m mod 2^w < 2^w mod d, and its
    digit is m >> w, so every digit has exactly floor(2^w / d) accepted
    fields.  64-bit fields are accepted below the largest multiple of d
    at most 2^64, and their digit is u mod d."""
    if w == 64:
        limit = 2**64 - 2**64 % d
        return fields % np.uint64(d), fields < np.uint64(limit) if limit < 2**64 else None
    threshold = 2**w % d
    if not threshold:  # d = 2^k: m >> w is u >> (w - k)
        return fields >> (w + 1 - d.bit_length()), None
    m = fields.astype(f"u{w // 4}") * d
    return m >> w, m.astype(fields.dtype) >= threshold


def _draw(dist: Distribution, count: int, seed: int, positions: Sequence[tuple], parities: bool = False) -> np.ndarray:
    """The `count` draws of dist at each stream position (stream, trial,
    attempt) of `positions`, one row each: int64 values, or parities as uint8.

    Each position reads its ceil(count * w / 64) raw words into one row of a
    buffer of w-bit fields, little-endian within each word; when d does not
    divide 2^w, the row's rejected fields are refilled in order by the
    accepted fields of further words of the same stream.  The whole buffer
    then maps to values at once: through the field tables up to 16 bits, by
    digit and binary search above."""
    d = dist.common_denominator
    w = dist._sampler[0]
    rejects = 2**w % d
    words = np.empty((len(positions), -(-count * w // 64)), dtype="<u8")
    fields = words.view(f"<u{w // 8}")[:, :count]
    for k, position in enumerate(positions):
        bits = _stream(seed, *position)
        words[k] = bits.random_raw(words.shape[1])
        if not rejects:
            continue
        redraw = np.flatnonzero(~_accept(fields[k], d, w)[1])
        while redraw.size:
            size = 2 * redraw.size + 8
            more = bits.random_raw(-(-size * w // 64)).astype("<u8", copy=False).view(f"<u{w // 8}")[:size]
            more = more[_accept(more, d, w)[1]][: redraw.size]
            fields[k, redraw[: more.size]] = more
            redraw = redraw[more.size :]
    tables = dist._field_tables
    if tables is not None:
        return tables[1 if parities else 0].take(fields)
    values = dist._field_values(fields)
    return (values & 1).astype(np.uint8) if parities else values


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of one random-matrix draw.

    iid_rect fills an n x m matrix with iid entries; symmetric_plus fills
    an n x n symmetric block (upper triangle iid, mirrored) and appends u
    iid columns.  The entries read the matrix stream of (seed, trial,
    attempt).
    """

    kind: str
    n: int
    dist: Distribution
    seed: int
    m: int | None = None
    u: int | None = None
    trial: int = 0
    attempt: int = 0

    def __post_init__(self) -> None:
        check_position(self.seed, self.trial, self.attempt)
        if self.kind not in (IID_RECT, SYMMETRIC_PLUS):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.kind == IID_RECT:
            m = self.n if self.m is None else self.m
            if m < self.n:
                raise ValueError("iid_rect requires m >= n")
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "u", m - self.n)
        else:
            u = 0 if self.u is None else self.u
            if u < 0:
                raise ValueError("symmetric_plus requires u >= 0")
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "m", self.n + u)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.m)


def sample_array(spec: EnsembleSpec) -> np.ndarray:
    """Sampled matrix as an int64 array; deterministic in (spec, seed, trial, attempt)."""
    n, m = spec.shape
    position = [(MATRIX_STREAM, spec.trial, spec.attempt)]
    if spec.kind == IID_RECT:
        return _draw(spec.dist, n * m, spec.seed, position)[0].reshape(n, m)
    tri_count = n * (n + 1) // 2
    draws = _draw(spec.dist, tri_count + n * spec.u, spec.seed, position)[0]
    out = np.empty((n, m), dtype=np.int64)
    iu = np.triu_indices(n)
    sym = out[:, :n]
    sym[iu] = draws[:tri_count]
    sym.T[iu] = draws[:tri_count]
    out[:, n:] = draws[tri_count:].reshape(n, spec.u)
    return out


def sample_iid_stack(dist: Distribution, n: int, m: int, seed: int, trials: range, parities: bool = False) -> np.ndarray:
    """The n x m iid matrices of `trials` at attempt 0 as one (len(trials),
    n, m) array: int64 values, or their parities as uint8.  Slice k equals
    sample_array of EnsembleSpec(IID_RECT, n, dist, seed, m=m, trial=trials[k]):
    each trial reads its own stream position into one row of the draw's
    buffer, and the whole stack maps to values at once."""
    check_position(seed, min(trials, default=0), 0)
    return _draw(dist, n * m, seed, [(MATRIX_STREAM, i, 0) for i in trials], parities).reshape(len(trials), n, m)


def sample_matrix(spec: EnsembleSpec) -> IntMatrix:
    """Sampled matrix as an IntMatrix; same stream as sample_array."""
    return IntMatrix.from_array(sample_array(spec))


def sample_columns(dist: Distribution, n: int, count: int, seed: int, trial: int, attempt: int, batch: int) -> np.ndarray:
    """`count` fresh iid columns of height n, drawn column by column from
    stream 1 + batch of (seed, trial, attempt), as an (n, count) block."""
    check_position(seed, trial, attempt)
    return _draw(dist, n * count, seed, [(MATRIX_STREAM + 1 + batch, trial, attempt)])[0].reshape(count, n).T

"""Finite-support integer distributions and seeded matrix samplers.

Weights are exact rationals so balance parameters, convolutions, and the
enumeration oracles in the tests stay exact.  Sampling draws a uniform
integer digit below the common denominator d (at most 2^63) and maps it
to the atom whose cumulative weight first exceeds it, so no floating
point enters the stream.  The map is a table of every digit's value while
d is at most 2^16 and a binary search above.  Digits come exactly from
the narrowest 8-, 16-, 32- or 64-bit fields of raw Philox4x64 words that
hold them, by rejection; a stack of trials whose law never rejects a
field maps each raw field through one table.  Every draw is a counter
position: the seed keys the generator, and (stream, trial, attempt) fill
the high counter words, so trial i of a report is recoverable from
(master seed, i) alone and parallel experiments are order-independent.
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
# common denominators up to this draw values from a table indexed by digit
_TABLE_LIMIT = 2**16


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
    def _sampler(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(values, cuts, table) mapping a digit t below the common
        denominator d to its atom: values[i], where i counts the cuts
        (cumulative numerators) at most t.  table[t] is that value for
        every t when d <= _TABLE_LIMIT, and table is None above.  A value
        of 2^62 or more in absolute value is an OverflowError."""
        if any(abs(v) >= 2**62 for v in self.values):
            raise OverflowError("support does not fit the array sampler")
        d = self.common_denominator
        if d > 2**63:
            raise ValueError(f"weight denominator {d} exceeds the sampler's limit of 2^63")
        values = np.array(self.values, dtype=np.int64)
        cuts = np.cumsum([int(w * d) for w in self.weights[:-1]], dtype=np.int64)
        table = values[np.searchsorted(cuts, np.arange(d), side="right")] if d <= _TABLE_LIMIT else None
        return values, cuts, table

    @cached_property
    def _field_tables(self) -> Tuple[np.ndarray, np.ndarray] | None:
        """(values, parities) of every raw w-bit field when w <= 16 and no
        field is ever rejected (d divides 2^w): the int64 value each field
        draws under _accept and the digit table, and its low bit as uint8.
        None for every other law."""
        d = self.common_denominator
        w = _field_bits(d)
        if w > 16:
            return None
        digits, accepted = _accept(np.arange(2**w, dtype=f"u{w // 8}"), d, w)
        if accepted is not None:
            return None
        values = self._sampler[2].take(digits)
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


def _fields(bits: np.random.Philox, w: int, count: int) -> np.ndarray:
    """The next `count` w-bit fields of the stream, little-endian within each word."""
    words = bits.random_raw(-(-count * w // 64)).astype("<u8", copy=False)
    return words.view(f"<u{w // 8}")[:count]


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


def _digits(bits: np.random.Philox, d: int, count: int) -> np.ndarray:
    """`count` uniform digits below d.  Rejected positions are refilled in
    order by the accepted fields of further draws from the same stream."""
    w = _field_bits(d)
    digits, accepted = _accept(_fields(bits, w, count), d, w)
    if accepted is None:
        return digits
    redraw = np.flatnonzero(~accepted)
    while redraw.size:
        more, ok = _accept(_fields(bits, w, 2 * redraw.size + 8), d, w)
        more = more[ok][: redraw.size]
        digits[redraw[: more.size]] = more
        redraw = redraw[more.size :]
    return digits


def _draw_values(dist: Distribution, count: int, bits: np.random.Philox) -> np.ndarray:
    """Exact sampling: uniform digits below the common denominator, each
    mapped to its value by table or by cumulative numerator."""
    values, cuts, table = dist._sampler
    digits = _digits(bits, dist.common_denominator, count)
    if table is not None:
        return table.take(digits)
    return values[np.searchsorted(cuts, digits.astype(np.int64), side="right")]


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
    bits = _stream(spec.seed, MATRIX_STREAM, spec.trial, spec.attempt)
    n, m = spec.shape
    if spec.kind == IID_RECT:
        return _draw_values(spec.dist, n * m, bits).reshape(n, m)
    tri_count = n * (n + 1) // 2
    extra_count = n * spec.u
    draws = _draw_values(spec.dist, tri_count + extra_count, bits)
    out = np.empty((n, m), dtype=np.int64)
    iu = np.triu_indices(n)
    sym = np.empty((n, n), dtype=np.int64)
    sym[iu] = draws[:tri_count]
    sym.T[iu] = draws[:tri_count]
    out[:, :n] = sym
    if spec.u:
        out[:, n:] = draws[tri_count:].reshape(n, spec.u)
    return out


def sample_iid_stack(dist: Distribution, n: int, m: int, seed: int, trials: range, parities: bool = False) -> np.ndarray:
    """The n x m iid matrices of `trials` at attempt 0 as one (len(trials),
    n, m) array: int64 values, or their parities as uint8.  Slice k equals
    sample_array of EnsembleSpec(IID_RECT, n, dist, seed, m=m, trial=trials[k]).
    A law whose fields are never rejected reads each trial's raw words at its
    own stream position into one buffer and maps every field through one
    table; any other law draws trial by trial."""
    check_position(seed, min(trials, default=0), 0)
    tables = dist._field_tables
    if tables is None:
        values = np.stack([_draw_values(dist, n * m, _stream(seed, MATRIX_STREAM, i, 0)) for i in trials])
        out = (values & 1).astype(np.uint8) if parities else values
    else:
        w = _field_bits(dist.common_denominator)
        words = np.empty((len(trials), -(-n * m * w // 64)), dtype="<u8")
        for k, i in enumerate(trials):
            words[k] = _stream(seed, MATRIX_STREAM, i, 0).random_raw(words.shape[1])
        out = tables[1 if parities else 0].take(words.view(f"<u{w // 8}")[:, : n * m])
    return out.reshape(len(trials), n, m)


def sample_matrix(spec: EnsembleSpec) -> IntMatrix:
    """Sampled matrix as an IntMatrix; same stream as sample_array."""
    return IntMatrix.from_array(sample_array(spec))


def sample_columns(dist: Distribution, n: int, count: int, seed: int, trial: int, attempt: int, batch: int) -> np.ndarray:
    """`count` fresh iid columns of height n, drawn column by column from
    stream 1 + batch of (seed, trial, attempt), as an (n, count) block."""
    check_position(seed, trial, attempt)
    return _draw_values(dist, n * count, _stream(seed, MATRIX_STREAM + 1 + batch, trial, attempt)).reshape(count, n).T

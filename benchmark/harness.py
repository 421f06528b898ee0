"""Measurement helpers for the latsurj benchmark.

Pure arithmetic (tail percentiles, Wilson intervals, the limiting corank
law) and the span tracer of traced runs.  Nothing here imports latsurj:
the tracer reaches the program only through the module attributes it is
told to wrap, so an untraced run executes the program untouched.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import time
from collections import Counter
from statistics import NormalDist
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

MIN_ABOVE = 10


def tail_percentile(samples: Sequence[float], cap: float = 0.9, min_above: int = MIN_ABOVE) -> Tuple[float, float]:
    """(percentile, value) of the highest nearest-rank percentile <= cap
    that leaves at least `min_above` samples above it.

    With 100 samples this is the p90 (rank 90, ten above); with fewer the
    percentile drops so that ten samples still lie beyond it.
    """
    n = len(samples)
    if n <= min_above:
        raise ValueError(f"need more than {min_above} samples, got {n}")
    rank = min(math.ceil(cap * n), n - min_above)
    return rank / n, sorted(samples)[rank - 1]


def wilson_interval(count: int, n: int, confidence: float) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1 or not 0 <= count <= n:
        raise ValueError("need 0 <= count <= n and n >= 1")
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    phat = count / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def corank_law(p: int, k: int) -> float:
    """Limiting P(corank = k) of a square matrix over F_p:
    p^(-k^2) * prod_{i=1..k} (1 - p^-i)^(-1) * prod_{i>k} (1 - p^-i)."""
    value = float(p) ** -(k * k)
    for i in range(1, k + 1):
        value /= 1 - float(p) ** -i
    for i in range(k + 1, k + 200):
        value *= 1 - float(p) ** -i
    return value


def seed_int(*parts: object) -> int:
    """Stable 63-bit integer derived from the given parts."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# -- tracing ------------------------------------------------------------

class Tracer:
    """Records nested spans and counters in memory.

    A span is [name, start, end, parent index]; parent -1 marks a root.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._clock = clock

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self._clock(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self._clock()
        self._open.pop()


def aggregate(spans: Iterable[list]) -> Dict[str, Dict[str, float]]:
    """Per-name calls, inclusive ms and self ms from closed spans.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only spans with no ancestor of the
    same name, so a name nested in itself is not counted twice.
    """
    spans = list(spans)
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        stat = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        stat["calls"] += 1
        stat["self_ms"] += (end - start - child[i]) * 1000
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            stat["ms"] += (end - start) * 1000
    return out


# hook(tracer, args, result, exc) runs after the wrapped call returns or raises
Hook = Callable[[Tracer, tuple, object, Optional[BaseException]], None]


def _wrap(tracer: Tracer, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(index)
            if hook is not None:
                hook(tracer, args, None, exc)
            raise
        tracer.end(index)
        if hook is not None:
            hook(tracer, args, result, None)
        return result

    return traced


class Installation:
    """Wrappers placed on module attributes; `remove` puts the originals back."""

    def __init__(self) -> None:
        self.undo: List[Tuple[object, str, object]] = []
        self.found: set = set()

    def remove(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


def install(tracer: Tracer, points: Sequence[Tuple[str, str, str, Optional[Hook]]]) -> Installation:
    """Wrap each (span name, module, attribute path, hook) point.

    The attribute path is looked up where callers look it up (for example
    the name a module imported with `from x import f`, or a method on its
    class).  Points whose module or attribute no longer exists are skipped;
    a span name none of whose points exist is absent from `found`.
    """
    inst = Installation()
    for name, module_name, path, hook in points:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            continue
        setattr(owner, attr, _wrap(tracer, name, original, hook))
        inst.undo.append((owner, attr, original))
        inst.found.add(name)
    return inst

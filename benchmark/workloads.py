"""The benchmark's workloads: seeded inputs, the timed op, correctness
gates, outcome counters and the trace points of the per-layer run.

Every op calls latsurj through module attributes at call time
(`certifier.is_surjective`, not a name bound at import), so the wrappers a
traced run installs are the ones that run.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from latsurj import certifier, ensembles, exact_linalg, experiments

from harness import corank_law, seed_int, wilson_interval

# Pooled gates use a 1 - 1e-6 interval, so a correct program fails one by
# chance about once in a million runs per checked frequency.
GATE_CONFIDENCE = 1 - 1e-6


# -- certify workloads --------------------------------------------------


@dataclass(frozen=True)
class MatrixInput:
    text: str
    rows: int
    cols: int
    entries: Tuple[int, ...]


@dataclass(frozen=True)
class CertifyResult:
    cert: object
    document: str  # the JSON `latsurj certify --verify` would print


def certificate_path(cert) -> str:
    """Which path of the certifier produced the certificate."""
    if getattr(cert, "method", None) == "snf_fallback":
        return "snf_fallback"
    reason = getattr(cert, "reason", None)
    if reason is not None:
        return reason
    gcd = getattr(cert, "gcd_value", None)
    if gcd == 1:
        return "gcd1"
    return "factored" if gcd is not None else "other"


def package(matrix, cert) -> CertifyResult:
    """Verify and serialize a certificate, as `certify --verify` does."""
    doc = cert.to_dict()
    doc["verified"] = certifier.verify_certificate(matrix, cert)
    return CertifyResult(cert, json.dumps(doc, sort_keys=True))


class CertifyWorkload:
    """One op certifies one matrix: parse, is_surjective, verify, serialize.

    Inputs come from the benchmark's own generator, not latsurj.ensembles,
    so they stay fixed when the program's sampling stream changes.
    """

    def __init__(self, name: str, rows: int, cols: int, values: Tuple[int, ...], prefix: int):
        self.name, self.rows, self.cols, self.values = name, rows, cols, values
        self.prefix = prefix

    def inputs(self, seed) -> Iterator[MatrixInput]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            entries = tuple(rng.choices(self.values, k=self.rows * self.cols))
            lines = [f"{self.rows} {self.cols}"]
            for i in range(self.rows):
                lines.append(" ".join(map(str, entries[i * self.cols : (i + 1) * self.cols])))
            yield MatrixInput("\n".join(lines) + "\n", self.rows, self.cols, entries)

    def trials(self, item: MatrixInput) -> int:
        return 1

    def describe(self, item: MatrixInput) -> str:
        return item.text

    def op(self, item: MatrixInput) -> CertifyResult:
        matrix = exact_linalg.parse_matrix(item.text)
        return package(matrix, certifier.is_surjective(matrix))

    def check(self, item: MatrixInput, result: CertifyResult) -> List[str]:
        """The certificate verifies, and the verdict equals Smith-form
        triviality of the cokernel."""
        doc = json.loads(result.document)
        failures = []
        if doc.get("verified") is not True:
            failures.append("certificate did not verify")
        oracle = exact_linalg.IntMatrix(item.rows, item.cols, item.entries)
        if (doc.get("verdict") == "surjective") != exact_linalg.cokernel(oracle).is_trivial:
            failures.append("verdict differs from the Smith form")
        return failures

    def outcomes(self, item: MatrixInput, result: CertifyResult) -> Counter:
        doc = json.loads(result.document)
        return Counter({f"path.{certificate_path(result.cert)}": 1, f"verdict.{doc.get('verdict')}": 1,
                        "verified": int(doc.get("verified") is True)})

    def pooled_check(self, totals: Counter) -> List[str]:
        return []


# -- Monte Carlo workloads ----------------------------------------------


class MonteCarloWorkload:
    """One op runs one report of `trials_per_report` trials through
    run_experiment; the report's master seed derives from the workload seed."""

    def __init__(self, name: str, trials_per_report: int, prefix: int, **config):
        self.name, self.trials_per_report, self.prefix = name, trials_per_report, prefix
        self.config = config

    def inputs(self, seed) -> Iterator:
        for index in itertools.count():
            yield experiments.ExperimentConfig(
                trials=self.trials_per_report, master_seed=seed_int(self.name, seed, index), **self.config
            )

    def trials(self, cfg) -> int:
        return cfg.trials

    def describe(self, cfg) -> str:
        return json.dumps(cfg.to_dict(), sort_keys=True)

    def op(self, cfg):
        return experiments.run_experiment(cfg)

    @staticmethod
    def counts(report) -> dict:
        return {o.label: o.count for o in report.outcomes}


class CorankWorkload(MonteCarloWorkload):
    def check(self, cfg, report) -> List[str]:
        counts = self.counts(report)
        failures = []
        if sum(counts.values()) != cfg.trials:
            failures.append("corank counts do not sum to the trials")
        for o in report.outcomes:
            if o.prediction is not None:
                k = int(o.label.split("=")[1])
                if abs(o.prediction - corank_law(cfg.p, k)) > 1e-9:
                    failures.append(f"corank={k} prediction differs from the limiting law")
        return failures

    def outcomes(self, cfg, report) -> Counter:
        return Counter(self.counts(report)) + Counter(trials=cfg.trials)

    # Coranks from TAIL up form one class: an interval check on a class
    # expected less than once per run misfires on a single occurrence.
    TAIL = 3

    def pooled_check(self, totals: Counter) -> List[str]:
        classes = [(f"corank={k}", totals[f"corank={k}"], corank_law(self.config["p"], k)) for k in range(self.TAIL)]
        classes.append((
            f"corank>={self.TAIL}",
            totals["trials"] - sum(count for _, count, _ in classes),
            1 - sum(law for _, _, law in classes),
        ))
        failures = []
        for label, count, law in classes:
            lo, hi = wilson_interval(count, totals["trials"], GATE_CONFIDENCE)
            if not lo <= law <= hi:
                failures.append(f"pooled {label} frequency misses the limiting law")
        return failures


class ExposureWorkload(MonteCarloWorkload):
    MIN_WITHIN_BUDGET = 0.95  # criterion 7

    def check(self, cfg, report) -> List[str]:
        traces = report.artifacts["traces"]
        budget = report.config["u_budget"]
        counts = self.counts(report)
        failures = []
        if len(traces) != cfg.trials:
            failures.append("trace count differs from the trials")
        if counts.get("achieved") != sum(t.achieved for t in traces):
            failures.append("achieved count differs from the traces")
        if counts.get("achieved_within_budget") != sum(
            t.achieved and t.total_extra_columns <= budget for t in traces
        ):
            failures.append("within-budget count differs from the traces")
        for t in traces:
            for traj in t.trajectories.values():
                if any(a < b for a, b in zip(traj, traj[1:])) or (t.achieved and traj[-1] != 0):
                    failures.append("corank trajectory increases or does not end at 0")
        return failures

    def outcomes(self, cfg, report) -> Counter:
        traces = report.artifacts["traces"]
        budget = report.config["u_budget"]
        return Counter(
            trials=cfg.trials,
            achieved=sum(t.achieved for t in traces),
            within=sum(t.achieved and t.total_extra_columns <= budget for t in traces),
            tracked_primes=sum(len(t.primes) for t in traces),
            extra_columns=sum(t.total_extra_columns for t in traces),
            **self._resamples(cfg.master_seed, traces),
        )

    @staticmethod
    def _resamples(master_seed: int, traces) -> dict:
        """Singular starting matrices resampled, found by matching each
        trace's seed: attempt a of trial i seeds its run with
        derive_seed(derive_seed(master, 1000 * i + a), 1).  Seeds that match
        no attempt (a changed seeding scheme) are counted, not failed."""
        out = Counter(resamples=0, unmatched_seeds=0)
        for index, trace in enumerate(traces):
            for attempt in range(64):
                start = ensembles.derive_seed(master_seed, index * 1000 + attempt)
                if ensembles.derive_seed(start, 1) == trace.seed:
                    out["resamples"] += attempt
                    break
            else:
                out["unmatched_seeds"] += 1
        return out

    def pooled_check(self, totals: Counter) -> List[str]:
        _, hi = wilson_interval(totals["within"], totals["trials"], GATE_CONFIDENCE)
        if hi < self.MIN_WITHIN_BUDGET:
            return ["pooled within-budget frequency is below 0.95"]
        return []


_U01 = ensembles.parse_distribution("uniform01")

WORKLOADS = {
    w.name: w
    for w in (
        CertifyWorkload("certify_wide", 50, 52, (0, 1), prefix=100),
        CorankWorkload("mc_corank", 20, prefix=20, experiment=experiments.CORANK, n=60, dist=_U01, p=2),
        ExposureWorkload("mc_exposure", 1, prefix=50, experiment=experiments.EXPOSURE, n=50, dist=_U01, b=2.0),
    )
}


# -- trace points and per-layer metrics ----------------------------------


def _count_rank_entries(tracer, args, result, exc) -> None:
    if exc is None:
        a = args[0]
        rows, cols = a.shape if hasattr(a, "shape") else (a.rows, a.cols)
        tracer.counts["modp.rank.entries"] += rows * cols


def _count_extend_growth(tracer, args, result, exc) -> None:
    if exc is None and result.dimension > args[0].dimension:
        tracer.counts["modp.colspace_extend.grew"] += 1


def _count_factorize_failure(tracer, args, result, exc) -> None:
    if type(exc).__name__ == "FactorizationError":
        tracer.counts["primes.factorize.failed"] += 1


# (span name, module, attribute its callers look up, hook)
TRACE_POINTS = [
    ("experiments.run", "latsurj.experiments", "run_experiment", None),
    ("exposure.run", "latsurj.experiments", "run_exposure", None),
    ("ensembles.sample", "latsurj.experiments", "sample_array", None),
    ("ensembles.sample", "latsurj.experiments", "sample_matrix", None),
    ("ensembles.derive_seed", "latsurj.experiments", "derive_seed", None),
    ("ensembles.sample_columns", "latsurj.exposure", "sample_columns", None),
    ("modp.rank", "latsurj.experiments", "rank_of_array", _count_rank_entries),
    ("modp.rank", "latsurj.experiments", "rank_mod_p", _count_rank_entries),
    ("modp.rank", "latsurj.certifier", "rank_mod_p", _count_rank_entries),
    ("modp.colspace_extend", "latsurj.modp", "ColumnSpace.extend", _count_extend_growth),
    ("modp.left_kernel", "latsurj.certifier", "left_kernel_vector", None),
    ("exact_linalg.parse", "latsurj.exact_linalg", "parse_matrix", None),
    ("exact_linalg.det", "latsurj.certifier", "det", None),
    ("exact_linalg.det", "latsurj.exposure", "det", None),
    ("exact_linalg.det_is_zero", "latsurj.experiments", "det_is_zero", None),
    ("exact_linalg.det_is_zero", "latsurj.experiments", "det_is_zero_array", None),
    ("exact_linalg.cokernel", "latsurj.certifier", "cokernel", None),
    ("primes.factorize", "latsurj.primes", "factorize", _count_factorize_failure),
    ("primes.is_probable_prime", "latsurj.primes", "is_probable_prime", None),
    ("certifier.is_surjective", "latsurj.certifier", "is_surjective", None),
    ("certifier.is_surjective", "latsurj.experiments", "is_surjective", None),
    ("certifier.verify", "latsurj.certifier", "verify_certificate", None),
]

# span name -> fields reported as <span>.<field>
SPAN_FIELDS = {
    "ensembles.sample": ("calls", "ms"),
    "ensembles.derive_seed": ("ms",),
    "ensembles.sample_columns": ("ms",),
    "modp.rank": ("calls", "ms"),
    "modp.colspace_extend": ("calls", "ms"),
    "modp.left_kernel": ("ms",),
    "exact_linalg.parse": ("ms",),
    "exact_linalg.det": ("calls", "ms"),
    "exact_linalg.det_is_zero": ("calls", "ms"),
    "exact_linalg.cokernel": ("calls", "ms"),
    "primes.factorize": ("calls", "ms"),
    "primes.is_probable_prime": ("calls", "ms"),
    "certifier.is_surjective": ("ms", "self_ms"),
    "certifier.verify": ("ms",),
    "exposure.run": ("ms", "self_ms"),
    "experiments.run": ("ms", "self_ms"),
    "bench.op": ("self_ms",),
}

# per-layer metric -> outcome counter read from returned objects
OUTCOME_METRICS = {
    **{f"certifier.path.{p}": f"path.{p}" for p in ("gcd1", "factored", "mod_p", "rank_deficient", "snf_fallback")},
    "exposure.tracked_primes": "tracked_primes",
    "exposure.extra_columns": "extra_columns",
    "exposure.resamples": "resamples",
}


def layer_metrics(stats: dict, counts: Counter, found: set, outcomes: Counter) -> dict:
    """Per-layer metrics of a traced pass as {name: (value, unit)}.

    Spans whose functions no longer exist (not in `found`) are left out.
    """
    found = set(found) | {"bench.op"}
    out = {}
    for span, fields in SPAN_FIELDS.items():
        if span not in found:
            continue
        stat = stats.get(span, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for field in fields:
            out[f"{span}.{field}"] = (stat[field], "count" if field == "calls" else "ms")
    if "modp.rank" in found:
        out["modp.rank.entries"] = (counts["modp.rank.entries"], "count")
    if "modp.colspace_extend" in found:
        calls = stats.get("modp.colspace_extend", {"calls": 0})["calls"]
        grew = counts["modp.colspace_extend.grew"]
        out["modp.colspace_extend.grew_ratio"] = (grew / calls if calls else 0.0, "ratio")
    if "primes.factorize" in found:
        out["primes.factorize.failed"] = (counts["primes.factorize.failed"], "count")
    for metric, key in OUTCOME_METRICS.items():
        out[metric] = (outcomes[key], "count")
    return out

"""Run one latsurj benchmark workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports latsurj from ./src.  Each
invocation runs one workload in its own process as a closed loop with one
client and the library's default worker count.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it holds the input digests and outcome counters.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the untraced loop
for half of --seconds, then runs the same inputs again with the traced
functions wrapped, and reports the per-layer metrics and the tracing
overhead.  A gate failure makes the exit code 1; missing sources or bad
arguments make it 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7


class Pass:
    """Totals of one pass over a workload's input stream."""

    def __init__(self) -> None:
        self.ops = 0
        self.trials = 0
        self.failed = 0
        self.timed = 0.0
        self.latencies_ms: list = []  # per trial, one entry per op
        self.outcomes: Counter = Counter()
        self.prefix_outcomes: Counter = Counter()
        self.digest = hashlib.sha256()
        self.prefix_digest = hashlib.sha256()
        self.errors: Counter = Counter()


def run_pass(wl, seed, seconds=None, count=None, tracer=None, gate=True) -> Pass:
    """Run ops over the seeded stream until `seconds` of wall time have
    passed and at least `wl.prefix` ops are done, or for exactly `count` ops.

    Only the op is timed; gates, counters and digests run between ops.
    The run is bounded by wall time, not op time, so that ops are sampled
    across the whole run whatever share of it the gates take.
    """
    p = Pass()
    begun = time.perf_counter()
    for index, item in enumerate(wl.inputs(seed)):
        if count is not None and index >= count:
            break
        if seconds is not None and time.perf_counter() - begun >= seconds and p.ops >= wl.prefix:
            break
        trials = wl.trials(item)
        span = tracer.begin("bench.op") if tracer else None
        start = time.perf_counter()
        try:
            result = wl.op(item)
        except Exception as exc:  # a failed op is counted, not fatal
            result, failures = None, [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end(span)
        p.ops += 1
        p.trials += trials
        p.timed += elapsed
        p.latencies_ms.append(elapsed * 1000 / trials)
        text = (wl.describe(item) + "\n").encode()
        p.digest.update(text)
        counts = Counter()
        if result is not None:
            try:
                failures = wl.check(item, result) if gate else []
                counts = wl.outcomes(item, result)
            except Exception as exc:  # a result the gates cannot read fails them
                failures = [f"unreadable result: {type(exc).__name__}: {exc}"]
            p.outcomes.update(counts)
        if index < wl.prefix:
            p.prefix_digest.update(text)
            p.prefix_outcomes.update(counts)
        if failures:
            p.failed += trials
            p.errors.update(failures)
    pooled = wl.pooled_check(p.outcomes) if gate else []
    if pooled:
        p.failed = p.trials
        p.errors.update(pooled)
    return p


def setup_seconds(workload: str) -> float:
    """Median wall time from spawning a fresh interpreter to the end of its
    `import latsurj` and one warm-up op."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("setup probe did not become ready")
        samples.append(ready - start)
    return statistics.median(samples)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and None in (args.seed, args.seconds, args.trace):
        parser.error("--seed, --seconds and --trace are required")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "latsurj" / "__init__.py").is_file():
        print(f"benchmark: no latsurj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from harness import Tracer, aggregate, install, tail_percentile

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    warmup = next(wl.inputs("warmup"))
    if args.setup_probe:
        wl.op(warmup)
        print("ready", flush=True)
        return 0

    setup = None if args.trace else setup_seconds(args.workload)
    wl.op(warmup)
    # A traced run splits its time between the untraced and traced passes.
    run = run_pass(wl, args.seed, seconds=args.seconds / 2 if args.trace else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    percentile, tail_ms = tail_percentile(run.latencies_ms)

    if args.trace:
        tracer = Tracer()
        inst = install(tracer, workloads.TRACE_POINTS)
        try:
            traced = run_pass(wl, args.seed, count=run.ops, tracer=tracer, gate=False)
        finally:
            inst.remove()
        if traced.outcomes != run.outcomes or traced.digest.hexdigest() != run.digest.hexdigest():
            run.failed = run.trials
            run.errors["traced pass differs from the untraced pass"] += 1
        stats = aggregate(tracer.spans)
        metrics = workloads.layer_metrics(stats, tracer.counts, inst.found, traced.outcomes)
        metrics["trace.ops"] = (traced.ops, "count")
        metrics["trace.overhead_frac"] = (1 - run.timed / traced.timed, "ratio")
        self_ms = sum(s["self_ms"] for s in stats.values())
        metrics["trace.self_coverage"] = (self_ms / (traced.timed * 1000), "ratio")
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "ops_per_s": (run.trials / run.timed, "1/s"),
            "op_ms_p90": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "inputs": {"ops": run.ops, "trials": run.trials, "sha256": run.digest.hexdigest()},
        "prefix": {
            "ops": min(wl.prefix, run.ops),
            "sha256": run.prefix_digest.hexdigest(),
            "outcomes": dict(sorted(run.prefix_outcomes.items())),
        },
        "outcomes": dict(sorted(run.outcomes.items())),
        "latency_samples": len(run.latencies_ms),
        "op_ms_p50": statistics.median(run.latencies_ms),
        "op_ms_p90_percentile": percentile,
        "failed_frac": run.failed / run.trials,
        "errors": dict(run.errors),
    }
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.trials,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

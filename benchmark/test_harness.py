"""Tests of the benchmark's arithmetic, tracer and correctness gates.

    python -m pytest benchmark
"""

import json
import sys
import types
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from harness import Tracer, aggregate, corank_law, install, tail_percentile, wilson_interval  # noqa: E402


# -- percentiles and intervals --------------------------------------------


def test_tail_percentile_is_p90_with_ten_samples_above():
    samples = list(range(1, 101))
    assert tail_percentile(samples) == (0.9, 90)
    assert sum(x > 90 for x in samples) == 10
    assert tail_percentile(list(range(1000, 0, -1))) == (0.9, 900)


def test_tail_percentile_drops_below_p90_to_keep_ten_samples_above():
    samples = list(range(1, 53))
    percentile, value = tail_percentile(samples)
    assert value == 42 and percentile == 42 / 52
    assert sum(x > value for x in samples) == 10
    assert tail_percentile(list(range(1, 12))) == (1 / 11, 1)
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(0, 10, 0.95)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi == pytest.approx(0.27753, abs=1e-5)
    lo, hi = wilson_interval(50, 100, 0.95)
    assert lo == pytest.approx(0.40383, abs=1e-5) and hi == pytest.approx(0.59617, abs=1e-5)


def test_corank_law_is_a_distribution_matching_the_library():
    from latsurj.predictions import corank_prediction

    assert sum(corank_law(2, k) for k in range(12)) == pytest.approx(1.0, abs=1e-12)
    for p in (2, 3):
        for k in range(5):
            assert corank_law(p, k) == pytest.approx(corank_prediction(p, k).value, abs=1e-12)


# -- spans ----------------------------------------------------------------


def _spans(*rows):
    return [list(r) for r in rows]


def test_self_time_with_nested_and_repeated_spans():
    # A[0,10] contains B[1,4] and B[5,7]; the second B contains A[5.5,6.5].
    spans = _spans(("A", 0, 10, -1), ("B", 1, 4, 0), ("B", 5, 7, 0), ("A", 5.5, 6.5, 2))
    stats = aggregate(spans)
    assert stats["A"]["calls"] == 2 and stats["B"]["calls"] == 2
    assert stats["A"]["ms"] == pytest.approx(10_000)  # the nested A is not counted again
    assert stats["B"]["ms"] == pytest.approx(5_000)
    assert stats["A"]["self_ms"] == pytest.approx(5_000 + 1_000)
    assert stats["B"]["self_ms"] == pytest.approx(3_000 + 1_000)
    assert sum(s["self_ms"] for s in stats.values()) == pytest.approx(10_000)


def test_install_wraps_module_attributes_and_restores_them():
    mod = types.ModuleType("bench_fake_mod")
    exec(
        "class Box:\n"
        "    def grow(self, x):\n"
        "        return x + 1\n"
        "def inner(x):\n"
        "    return Box().grow(x) * 2\n"
        "def outer(x):\n"
        "    return inner(x) + 1\n",
        mod.__dict__,
    )
    sys.modules[mod.__name__] = mod
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    seen = []
    points = [
        ("outer", mod.__name__, "outer", None),
        ("inner", mod.__name__, "inner", None),
        ("grow", mod.__name__, "Box.grow", lambda t, args, result, exc: seen.append(result)),
        ("gone", mod.__name__, "no_such_function", None),
        ("gone", "bench_no_such_module", "f", None),
    ]
    originals = (mod.outer, mod.inner, mod.Box.grow)
    inst = install(tracer, points)
    try:
        assert mod.outer(3) == 9
    finally:
        inst.remove()
    assert (mod.outer, mod.inner, mod.Box.grow) == originals
    assert inst.found == {"outer", "inner", "grow"}
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "grow"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert seen == [4]
    del sys.modules[mod.__name__]


def test_layer_metrics_leave_out_spans_that_no_longer_exist():
    found = {name for name, *_ in workloads.TRACE_POINTS} - {"modp.colspace_extend"}
    metrics = workloads.layer_metrics({}, Counter(), found, Counter())
    assert "modp.colspace_extend.calls" not in metrics
    assert "modp.colspace_extend.grew_ratio" not in metrics
    assert metrics["modp.rank.calls"] == (0, "count")


# -- certify gates ----------------------------------------------------------


@pytest.fixture(scope="module")
def small_certify():
    wl = workloads.CertifyWorkload("test_certify", 6, 8, (0, 1, 2), prefix=5)
    stream = wl.inputs(0)
    for _ in range(200):
        item = next(stream)
        result = wl.op(item)
        if result.cert.determinant is not None and result.cert.gcd_value != 1:
            return wl, item, result
    raise AssertionError("no factored certificate among the first inputs")


def test_certify_gate_passes_a_correct_result(small_certify):
    wl, item, result = small_certify
    assert wl.check(item, result) == []
    assert wl.outcomes(item, result)["path.factored"] == 1


def test_certify_gate_fails_a_tampered_certificate(small_certify):
    wl, item, result = small_certify
    matrix = workloads.exact_linalg.parse_matrix(item.text)
    tampered = replace(result.cert, determinant=result.cert.determinant + result.cert.gcd_value)
    assert wl.check(item, workloads.package(matrix, tampered)) == ["certificate did not verify"]


def test_certify_gate_fails_a_wrong_verdict(small_certify):
    wl, item, result = small_certify
    truth = json.loads(result.document)["verdict"]
    wrong = "not_surjective" if truth == "surjective" else "surjective"
    forged = workloads.CertifyResult(result.cert, json.dumps({"verdict": wrong, "verified": True}))
    assert wl.check(item, forged) == ["verdict differs from the Smith form"]
    matrix = workloads.exact_linalg.parse_matrix(item.text)
    flipped = workloads.package(matrix, replace(result.cert, verdict=wrong))
    assert len(wl.check(item, flipped)) == 2


# -- Monte Carlo gates -----------------------------------------------------


def _outcome(label, count, prediction=None):
    return SimpleNamespace(label=label, count=count, prediction=prediction)


def test_corank_gates():
    wl = workloads.WORKLOADS["mc_corank"]
    cfg = SimpleNamespace(trials=10, p=2)
    good = SimpleNamespace(outcomes=[_outcome("corank=0", 3, corank_law(2, 0)), _outcome("corank=1", 7, corank_law(2, 1))])
    assert wl.check(cfg, good) == []
    short = SimpleNamespace(outcomes=[_outcome("corank=0", 3, corank_law(2, 0))])
    assert wl.check(cfg, short) == ["corank counts do not sum to the trials"]
    wrong_law = SimpleNamespace(outcomes=[_outcome("corank=0", 10, 0.5)])
    assert wl.check(cfg, wrong_law) == ["corank=0 prediction differs from the limiting law"]
    trials = 100_000
    fair = Counter({f"corank={k}": round(trials * corank_law(2, k)) for k in range(9)}, trials=trials)
    assert wl.pooled_check(fair) == []
    skewed = fair + Counter({"corank=0": 5_000, "trials": 5_000})
    assert "pooled corank=0 frequency misses the limiting law" in wl.pooled_check(skewed)
    # one corank-5 matrix in 4380 trials (law 1e-7) is not evidence against the law
    rare = Counter({"corank=0": 1265, "corank=1": 2530, "corank=2": 562, "corank=3": 21, "corank=5": 1, "trials": 4380})
    assert wl.pooled_check(rare) == []
    heavy_tail = rare + Counter({"corank=4": 200, "trials": 200})
    assert wl.pooled_check(heavy_tail) == ["pooled corank>=3 frequency misses the limiting law"]


def test_exposure_gates():
    wl = workloads.WORKLOADS["mc_exposure"]
    cfg = SimpleNamespace(trials=1)
    trace = SimpleNamespace(achieved=True, total_extra_columns=3, trajectories={2: (2, 1, 0)})
    report = SimpleNamespace(
        artifacts={"traces": [trace]},
        config={"u_budget": 10},
        outcomes=[_outcome("achieved_within_budget", 1), _outcome("achieved", 1)],
    )
    assert wl.check(cfg, report) == []
    trace.trajectories = {2: (1, 2, 0)}
    assert wl.check(cfg, report) == ["corank trajectory increases or does not end at 0"]
    assert wl.pooled_check(Counter(within=200, trials=200)) == []
    assert wl.pooled_check(Counter(within=150, trials=200)) != []


def test_exposure_resamples_are_read_from_trace_seeds():
    derive = workloads.ensembles.derive_seed
    traces = [SimpleNamespace(seed=derive(derive(7, 0), 1)), SimpleNamespace(seed=derive(derive(7, 1002), 1)),
              SimpleNamespace(seed=12345)]
    assert workloads.ExposureWorkload._resamples(7, traces) == Counter(resamples=2, unmatched_seeds=1)


# -- the run loop ------------------------------------------------------------


class _FakeWorkload:
    prefix = 2

    def inputs(self, seed):
        return iter(range(6))

    def trials(self, item):
        return 3

    def describe(self, item):
        return str(item)

    def op(self, item):
        if item == 4:
            raise ZeroDivisionError("boom")
        return item

    def check(self, item, result):
        return ["odd"] if result == 1 else []

    def outcomes(self, item, result):
        return Counter(seen=1)

    def pooled_check(self, totals):
        return []


def test_run_pass_counts_failed_checks_and_raising_ops():
    p = run.run_pass(_FakeWorkload(), 0, count=6)
    assert (p.ops, p.trials, p.failed) == (6, 18, 6)
    assert p.errors == Counter({"odd": 1, "ZeroDivisionError: boom": 1})
    assert p.outcomes == Counter(seen=5) and p.prefix_outcomes == Counter(seen=2)
    assert not run.run_pass(_FakeWorkload(), 0, count=6, gate=False).errors["odd"]


def test_run_pass_fails_a_result_the_gates_cannot_read():
    wl = _FakeWorkload()
    wl.outcomes = lambda item, result: {}["missing"]
    p = run.run_pass(wl, 0, count=2)
    assert p.failed == 6 and p.errors == Counter({"unreadable result: KeyError: 'missing'": 2})


def test_run_pass_fails_every_trial_when_a_pooled_gate_fails():
    wl = _FakeWorkload()
    wl.pooled_check = lambda totals: ["pooled"]
    p = run.run_pass(wl, 0, count=2)
    assert p.failed == p.trials == 6


# -- whole runs against BENCHMARK.json ---------------------------------------


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_reports_the_declared_metrics(trace, capsys):
    code = run.main(["--workload", "mc_corank", "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    info_line, result_line = capsys.readouterr().out.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 20 * workloads.WORKLOADS["mc_corank"].trials_per_report
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(_spec()["workloads"][i]["name"] for i in range(len(_spec()["workloads"]))) == set(workloads.WORKLOADS)
    assert json.loads(info_line[len("info "):])["prefix"]["ops"] == 20

"""In-process A/B timing of two source trees on one benchmark workload.

    python3 tools/ab_trees.py TREE_A TREE_B --workload mc_corank --rounds 10

TREE_A and TREE_B are checkouts that each hold src/latsurj and benchmark/
(a `git archive` of another commit works).  The script imports each tree's
benchmark modules, with the latsurj under that tree's src/, into this one
process, and keeps the two sets of modules apart.  It first runs the
workload's own prefix of ops (its `prefix`, as benchmark/run.py digests it)
of seed --seed in both trees and stops with exit code 1 unless their
outputs agree.  Then it runs --rounds rounds: round r runs the same --ops
ops of the input stream of seed --seed + r in both trees, A first in even
rounds and B first in odd ones, each through that tree's
benchmark/run.py `run_pass` without gates, so only the op is timed.

Per tree it prints the median and quartiles over the rounds of the trials
per second (benchmark/run.py's ops_per_s) and of the round's tail op
latency per trial (op_ms_p90, by benchmark/harness.py's `tail_percentile`,
which is the p90 from 100 ops on), then the ratio of the median ops_per_s
B / A, how many rounds B won, A's ops_per_s interquartile range over its
median, and whether B's gain meets the rule of `gain_rule_met`; the last
line is all of it as one JSON object.  A tree or workload that cannot be found makes the exit code 2.
Alternating in one process lets drift on a shared host move both trees
alike, where single benchmark runs cannot resolve changes of 5-25 %.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import statistics
import sys
from pathlib import Path

# top-level modules a tree provides: its package and the benchmark's modules
_TREE_MODULES = ("latsurj", "workloads", "harness", "run")


def _evict() -> dict:
    """Remove every module of a tree from sys.modules and return them."""
    names = [name for name in sys.modules if name.split(".")[0] in _TREE_MODULES]
    return {name: sys.modules.pop(name) for name in names}


def _usage_error(message: str) -> None:
    print(f"ab_trees: {message}", file=sys.stderr)
    raise SystemExit(2)


class Tree:
    """One checkout's workload, with the modules the tree imported held
    aside so that another tree's can be imported under the same names."""

    def __init__(self, root: str, workload: str):
        self.root = Path(root).resolve()
        for part in ("src/latsurj/__init__.py", "benchmark/workloads.py"):
            if not (self.root / part).is_file():
                _usage_error(f"no {part} under {self.root}")
        self.modules: dict = {}
        with self:
            workloads = importlib.import_module("workloads")
            self.run = importlib.import_module("run")
            self.harness = importlib.import_module("harness")
        if workload not in workloads.WORKLOADS:
            _usage_error(f"unknown workload {workload!r}; one of {sorted(workloads.WORKLOADS)}")
        self.wl = workloads.WORKLOADS[workload]

    def __enter__(self):
        # imports inside the block, at load or at run time, find this tree
        self._outer = _evict()
        sys.modules.update(self.modules)
        self._path = list(sys.path)
        sys.path[:0] = [str(self.root / "src"), str(self.root / "benchmark")]
        return self

    def __exit__(self, *exc) -> None:
        sys.path[:] = self._path
        self.modules = _evict()
        sys.modules.update(self._outer)


def _output(result) -> str:
    """The deterministic text of an op's result."""
    if hasattr(result, "canonical_json"):
        return result.canonical_json()
    return getattr(result, "document", None) or repr(result)


def prefix_digest(tree: Tree, seed: int) -> str:
    """sha256 over the workload's prefix of ops: each input and its output."""
    digest, wl = hashlib.sha256(), tree.wl
    with tree:
        for item in itertools.islice(wl.inputs(seed), wl.prefix):
            digest.update((wl.describe(item) + "\n" + _output(wl.op(item)) + "\n").encode())
    return digest.hexdigest()


def timed_round(tree: Tree, seed: int, ops: int) -> tuple:
    """(ops_per_s, op_ms_p90) of the first `ops` inputs of `seed`, as the
    tree's own benchmark computes them."""
    with tree:
        p = tree.run.run_pass(tree.wl, seed, count=ops, gate=False)
        return p.trials / p.timed, tree.harness.tail_percentile(p.latencies_ms)[1]


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def gain_rule_met(a: list, b: list) -> bool:
    """Whether B's ops_per_s rounds show a gain over A's paired rounds: B
    faster in at least 9 of every 10 (ties count for neither), and B's
    median above A's by more than A's interquartile range."""
    wins = sum(y > x for x, y in zip(a, b))
    spread = summary(a)
    return 10 * wins >= 9 * len(a) and statistics.median(b) - spread["median"] > spread["q3"] - spread["q1"]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--ops", type=int, default=100, help="timed ops per tree and round (more than 10)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 2 or args.ops <= 10:
        parser.error("--rounds must be at least 2 and --ops more than 10")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    trees = {"A": Tree(args.tree_a, args.workload), "B": Tree(args.tree_b, args.workload)}
    digests = {name: prefix_digest(tree, args.seed) for name, tree in trees.items()}
    if digests["A"] != digests["B"]:
        print(f"ab_trees: outputs differ over the first {trees['A'].wl.prefix} ops: {digests}", file=sys.stderr)
        return 1
    rounds = {"A": [], "B": []}
    for r in range(args.rounds):
        for name in ("AB" if r % 2 == 0 else "BA"):
            rounds[name].append(timed_round(trees[name], args.seed + r, args.ops))
    result = {
        "workload": args.workload,
        "trees": {"A": args.tree_a, "B": args.tree_b},
        "rounds": args.rounds,
        "ops": args.ops,
        "seed": args.seed,
        "prefix": {"ops": trees["A"].wl.prefix, "sha256": digests["A"]},
    }
    rates = {name: [rate for rate, _ in rounds[name]] for name in "AB"}
    for name in "AB":
        result[name] = {
            "ops_per_s": summary(rates[name]),
            "op_ms_p90": summary([p90 for _, p90 in rounds[name]]),
            "rounds": [{"ops_per_s": rate, "op_ms_p90": p90} for rate, p90 in rounds[name]],
        }
        rate, p90 = result[name]["ops_per_s"], result[name]["op_ms_p90"]
        print(
            f"{name}: ops_per_s median {rate['median']:.1f} (q1 {rate['q1']:.1f}, q3 {rate['q3']:.1f}); "
            f"op_ms_p90 median {p90['median']:.4f} (q1 {p90['q1']:.4f}, q3 {p90['q3']:.4f})"
        )
    result["ratio_b_over_a"] = result["B"]["ops_per_s"]["median"] / result["A"]["ops_per_s"]["median"]
    a_rate = result["A"]["ops_per_s"]
    result["b_wins"] = sum(b > a for a, b in zip(rates["A"], rates["B"]))
    result["a_iqr_over_median"] = (a_rate["q3"] - a_rate["q1"]) / a_rate["median"]
    result["gain_rule_met"] = gain_rule_met(rates["A"], rates["B"])
    print(
        f"B / A ops_per_s {result['ratio_b_over_a']:.3f}, B faster in {result['b_wins']} of {args.rounds} rounds, "
        f"A's IQR / median {result['a_iqr_over_median']:.3f}, gain rule met: {result['gain_rule_met']}"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

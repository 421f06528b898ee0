"""tools/ab_trees.py, the in-process A/B of two source trees, run as a script."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_trees.py"


def _tool_module():
    spec = importlib.util.spec_from_file_location("ab_trees", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


A_ROUNDS = [100.0, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartiles 102.25 and 106.75


@pytest.mark.parametrize(
    "b,met",
    [
        ([r + 10 for r in A_ROUNDS], True),
        ([r + 10 for r in A_ROUNDS[:9]] + [A_ROUNDS[9]], True),  # 9 wins and a tie
        ([r + 10 for r in A_ROUNDS[:8]] + A_ROUNDS[8:], False),  # 8 of 10 wins
        ([r + 4 for r in A_ROUNDS], False),  # medians 4.0 apart, A's IQR 4.5
        ([r + 5 for r in A_ROUNDS], True),
        ([r - 10 for r in A_ROUNDS], False),
    ],
)
def test_gain_rule(b, met):
    assert _tool_module().gain_rule_met(A_ROUNDS, b) is met


def _ab(tree_a, tree_b):
    argv = [sys.executable, str(TOOL), str(tree_a), str(tree_b), "--workload", "mc_corank"]
    argv += ["--rounds", "3", "--ops", "11"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_a_tree_against_itself():
    proc = _ab(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [len(result[t]["rounds"]) for t in "AB"] == [3, 3]
    assert all(r["ops_per_s"] > 0 for t in "AB" for r in result[t]["rounds"])
    assert 0 <= result["b_wins"] <= 3
    assert result["a_iqr_over_median"] >= 0 and isinstance(result["gain_rule_met"], bool)
    assert f"gain rule met: {result['gain_rule_met']}" in proc.stdout.splitlines()[-2]


def test_trees_whose_outputs_differ_are_not_timed(tmp_path):
    # B's reports carry another confidence level; were its modules A's, the digests would agree
    for part in ("src", "benchmark"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "latsurj" / "experiments.py"
    text = source.read_text()
    assert "CONFIDENCE = 0.95\n" in text
    source.write_text(text.replace("CONFIDENCE = 0.95\n", "CONFIDENCE = 0.9\n"))
    proc = _ab(ROOT, tmp_path)
    assert proc.returncode == 1
    assert "outputs differ" in proc.stderr and proc.stdout == ""

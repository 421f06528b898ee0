"""tools/ab_trees.py, the in-process A/B of two source trees, run as a script."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_trees.py"


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

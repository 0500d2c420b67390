"""Smoke test of ``tools/pairtime.py``: the repository paired with itself
runs the benchmark's first ops on both sides and prints the ratio line."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pairtime_pairs_the_repository_with_itself():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairtime.py"), str(ROOT), str(ROOT),
         "--workload", "points", "--ops", "2", "--reps", "1"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert re.search(r"^rep 0: parent [\d.]+ ms, change [\d.]+ ms, ratio [\d.]+$", run.stdout, re.M)
    summary = re.search(r"points seed 1, 2 ops x 1 reps: change/parent CPU ratio median ([\d.]+)"
                        r" \(min ([\d.]+), max ([\d.]+)\)", run.stdout)
    assert summary and all(float(x) > 0.0 for x in summary.groups())


def test_pairtime_times_only_the_ops_of_a_label():
    # Of the first four outer ops of seed 1, op 0 is a cpud op and ops 1-3
    # are compound ops: only those three are timed, each with its own ratio.
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairtime.py"), str(ROOT), str(ROOT),
         "--workload", "outer", "--ops", "4", "--reps", "1", "--label", "compound_cd"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    timed = re.findall(r"^op (\d+) (compound_cd/\S.*): parent [\d.]+ ms, change [\d.]+ ms, ratio [\d.]+$",
                       run.stdout, re.M)
    assert [int(i) for i, _ in timed] == [1, 2, 3]
    assert re.search(r"^compound_cd: 3 ops, per-op change/parent CPU ratio median [\d.]+$", run.stdout, re.M)
    assert re.search(r"^outer seed 1, 3 of 4 ops x 1 reps: change/parent CPU ratio median ", run.stdout, re.M)
    missing = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairtime.py"), str(ROOT), str(ROOT),
         "--workload", "outer", "--ops", "4", "--reps", "1", "--label", "no such op"],
        capture_output=True, text=True,
    )
    assert missing.returncode == 2
    assert "no op of the first 4" in missing.stderr

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

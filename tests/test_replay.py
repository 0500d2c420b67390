"""Smoke test of ``tools/replay.py``: it records the benchmark's first ops
with their checks and counts, and ``--diff`` reports a changed result."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPLAY = Path(__file__).resolve().parents[1] / "tools" / "replay.py"


def _replay(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(REPLAY), *args], capture_output=True, text=True)


def test_replay_records_ops_and_diff_reports_changes(tmp_path):
    run = _replay("points", "--seed", "5", "--ops", "2")
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [line["op"] for line in lines] == [0, 1]
    assert all(line["check"] is None and "capacity" in line["fields"] for line in lines)
    assert sum(line["counts"]["scores"] for line in lines) > 0

    same, changed = tmp_path / "same.jsonl", tmp_path / "changed.jsonl"
    same.write_text(run.stdout)
    lines[1]["fields"]["capacity"] = "0" * 16
    lines[1]["counts"]["scores"] += 3
    changed.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert _replay("--diff", str(same), str(same)).returncode == 0
    diff = _replay("--diff", str(same), str(changed))
    assert diff.returncode == 1
    assert "op 1 " in diff.stdout and "fields: capacity" in diff.stdout and "(+3)" in diff.stdout

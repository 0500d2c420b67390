"""Smoke test of ``tools/replay.py``: it records the benchmark's first ops
with their checks and counts, and ``--diff`` reports a changed result; the
wide corpus's dual bound is the exact one, the blocks corpus's check
catches a support that is not a scan's, and the several corpus's check
catches a law over its budgets."""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

REPLAY = Path(__file__).resolve().parents[1] / "tools" / "replay.py"
_spec = importlib.util.spec_from_file_location("replay", REPLAY)
replay = importlib.util.module_from_spec(_spec)
sys.modules["replay"] = replay  # its dataclass resolves annotations through the module
_spec.loader.exec_module(replay)


def _replay(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(REPLAY), *args], capture_output=True, text=True)


def test_replay_records_ops_and_diff_reports_changes(tmp_path):
    run = _replay("points", "--seed", "5", "--ops", "2")
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [line["op"] for line in lines] == [0, 1]
    assert all(line["check"] is None and "capacity" in line["fields"] for line in lines)
    assert sum(line["counts"]["scores"] for line in lines) > 0
    # The totals line ends with the CPU time and the peak resident set.
    totals = re.search(r"points seed 5: 2 ops, 0 failed, .*, ([\d.]+) s CPU, ([\d.]+) MB peak RSS$", run.stderr.strip())
    assert totals and float(totals[1]) >= 0 and float(totals[2]) > 0

    same, changed = tmp_path / "same.jsonl", tmp_path / "changed.jsonl"
    same.write_text(run.stdout)
    lines[1]["fields"]["capacity"] = "0" * 16
    lines[1]["counts"]["scores"] += 3
    changed.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert _replay("--diff", str(same), str(same)).returncode == 0
    diff = _replay("--diff", str(same), str(changed))
    assert diff.returncode == 1
    assert "op 1 " in diff.stdout and "fields: capacity" in diff.stdout and "(+3)" in diff.stdout


def test_replay_counts_linear_program_solves_and_diff_reads_a_missing_count_as_absent(tmp_path):
    # The first several op is a binding 2-row point: its Frank-Wolfe solves
    # the budget polytope's program at every linear step.
    run = _replay("several", "--seed", "5", "--ops", "1")
    assert run.returncode == 0, run.stderr
    line = json.loads(run.stdout)
    solves, basis_solves = line["counts"]["lp_solves"], line["counts"]["basis_solves"]
    assert solves > 0
    assert basis_solves >= solves  # each solve prices its basis at least once
    # A record made before lp_solves and basis_solves were counted lacks
    # their keys.
    older = dict(line, counts={k: v for k, v in line["counts"].items() if k not in ("lp_solves", "basis_solves")})
    old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old_path.write_text(json.dumps(older) + "\n")
    new_path.write_text(run.stdout)
    diff = _replay("--diff", str(old_path), str(new_path))
    assert diff.returncode == 0, diff.stdout + diff.stderr
    assert f"lp_solves: absent -> {solves}" in diff.stdout
    assert f"basis_solves: absent -> {basis_solves}" in diff.stdout
    assert "0 difference(s)" in diff.stdout


def test_blocks_corpus_passes_its_checks_and_a_missing_support_fails():
    run = _replay("blocks", "--seed", "5", "--ops", "8")
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert len(lines) == 8 and all(line["check"] is None and "support" in line["fields"] for line in lines)

    import capdist as cd

    model = cd.block_multiplicative_model(0.3, 7)
    build = replay.BlockBuild(model.transition, model.state_prior, model.distortion, model._support)
    assert replay.check_block_build(build, 7) is None
    stale = replay.BlockBuild(model.transition, model.state_prior, model.distortion, None)
    assert replay.check_block_build(stale, 7) == "support differs from a scan of the tensor"


def test_several_corpus_passes_its_checks_and_an_over_budget_law_fails(monkeypatch):
    run = _replay("several", "--seed", "5", "--ops", "6")
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert len(lines) == 6 and all(line["check"] is None for line in lines)

    import capdist as cd

    monkeypatch.syspath_prepend(str(REPLAY.parents[1] / "perfbench"))  # the check reads its tolerances
    model = cd.scalar_multiplicative_model(0.3)
    rows = np.vstack([cd.optimal_estimator(model).cost_vector, [1.0, 0.0]])
    budgets = np.array([0.05, 0.5])
    point = cd.multi_constraint_point(model, [cd.CostConstraint(r, float(b)) for r, b in zip(rows, budgets)])
    assert replay.check_several_point(model, rows, budgets, point) is None
    over = cd.CDPoint(0.05, 0.0, cd.InputDistribution(np.array([1.0, 0.0])), True)
    assert replay.check_several_point(model, rows, budgets, over).startswith("INVALID: costs")


_slopes = st.one_of(st.just(0.0), st.floats(-1.0, -1e-3), st.floats(1e-3, 1.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=st.integers(1, 8).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(-5.0, 5.0)), arrays(np.float64, n, elements=_slopes))))
def test_wide_dual_bound_is_the_exact_min_max_of_the_lines(case):
    # The wide corpus's O(|X|)-per-step bound against the minimum over every
    # crossing of a rising and a falling line.
    a, b = case
    got = replay.dual_bound(a, b)
    if np.all(b > 0.0):
        assert got == float("inf")
        return
    lams = [0.0] + [(a[i] - a[j]) / (b[i] - b[j]) for i in range(a.size) for j in range(a.size)
                    if b[i] > 0.0 >= b[j] and a[i] > a[j]]
    exact = min(float(np.max(a - lam * b)) for lam in lams)
    assert exact - 1e-12 <= got <= exact + 1e-9

"""Command-line interface: subcommands, formats, and exit codes."""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest

import capdist as cd
from capdist import cli

R04_CAP_AT_01 = 0.10610555179795111


def _scalar_doc():
    return {
        "sizes": {"x": 2, "y": 2, "s": 2},
        "transition": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "state_prior": [0.6, 0.4],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
    }


def _grab(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key):
            return line.partition("=")[2].strip()
    raise AssertionError(f"no line starting with {key!r} in output:\n{out}")


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------


def test_point_inline_preset(capsys):
    code = cli.main(["point", "scalar_multiplicative r=0.4", "--distortion", "0.1", "--bits"])
    out = capsys.readouterr().out
    assert code == 0
    nats = float(_grab(out, "C(D) =").split()[0])
    assert abs(nats - R04_CAP_AT_01) < 1e-9
    bits_line = [l for l in out.splitlines() if l.endswith("bits")][0]
    assert abs(float(bits_line.split("=")[1].split()[0]) - nats / math.log(2.0)) < 1e-9
    assert _grab(out, "constraint_active") == "true"


def test_point_json_file_matches_preset(tmp_path, capsys):
    spec = tmp_path / "chan.json"
    spec.write_text(json.dumps(_scalar_doc()))
    code = cli.main(["point", str(spec), "--distortion", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert abs(float(_grab(out, "C(D) =").split()[0]) - R04_CAP_AT_01) < 1e-9


def test_point_infeasible_budget_exits_3(capsys):
    code = cli.main(["point", "scalar_multiplicative r=0.4", "--distortion", "-0.1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err


def test_point_nan_budget_exits_2(capsys):
    code = cli.main(["point", "scalar_multiplicative r=0.3", "--distortion", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert "NaN" in captured.err
    assert "C(D)" not in captured.out


def test_point_convergence_warning_exits_4(monkeypatch, capsys):
    def fake_point(model, budget, opts=None):
        return cd.CDPoint(budget, 0.1, cd.InputDistribution([0.5, 0.5]), True,
                          "inner ascent hit its iteration cap")

    monkeypatch.setattr(cli, "capacity_distortion_point", fake_point)
    code = cli.main(["point", "scalar_multiplicative r=0.4", "--distortion", "0.1"])
    captured = capsys.readouterr()
    assert code == 4
    assert "warning:" in captured.err


def test_point_uncertified_solve_exits_4(tmp_path, monkeypatch, capsys):
    # A real solve, cut to two iterations per ascent and finisher, whose
    # gap stays above stall_cert (about 1.9e-2).
    lib = np.random.default_rng(8011136)
    nx, ns, ny = int(lib.integers(2, 9)), int(lib.integers(2, 4)), int(lib.integers(2, 7))
    doc = {
        "sizes": {"x": nx, "y": ny, "s": ns},
        "transition": lib.dirichlet(np.ones(ny), size=(nx, ns)).tolist(),
        "state_prior": lib.dirichlet(np.ones(ns)).tolist(),
        "distortion": (1.0 - np.eye(ns)).tolist(),
    }
    spec = tmp_path / "chan.json"
    spec.write_text(json.dumps(doc))
    model, _ = cli.load_spec(str(spec))
    d_min, d_max = cd.feasible_range(model)
    budget = repr(d_min + 0.9 * (d_max - d_min))
    assert cli.main(["point", str(spec), "--distortion", budget]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "capacity_distortion_point", functools.partial(
        cd.capacity_distortion_point, opts=cd.SolverOptions(ba_max_iter=2)))
    code = cli.main(["point", str(spec), "--distortion", budget])
    captured = capsys.readouterr()
    assert code == 4
    assert "above stall_cert" in captured.err
    assert "C(D) =" in captured.out


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def test_curve_grid_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code = cli.main(["curve", "scalar_multiplicative r=0.3", "--grid", "6", "--out", str(out_file)])
    assert code == 0
    assert "wrote 6 points" in capsys.readouterr().out
    rows = cli.read_curve_csv(str(out_file))
    assert len(rows) == 6
    budgets = [row[0] for row in rows]
    assert budgets == sorted(budgets)
    assert rows[0][0] == 0.0
    for _, nats, bits, _ in rows:
        assert abs(bits - nats / math.log(2.0)) < 1e-12
    # Serializing the parsed rows reproduces the file byte for byte.
    assert cli.format_curve_rows(rows) == out_file.read_text()


def test_curve_d_list_skips_infeasible_budgets(tmp_path, capsys):
    doc = _scalar_doc()
    # Both letters mute the channel: every letter costs 0.4, so d_min = 0.4.
    doc["transition"] = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]
    spec = tmp_path / "mute.json"
    spec.write_text(json.dumps(doc))
    out_file = tmp_path / "curve.csv"
    code = cli.main(["curve", str(spec), "--d-list", "0.1,0.45", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 3
    assert "skipping infeasible budgets" in captured.err
    rows = cli.read_curve_csv(str(out_file))
    assert len(rows) == 1
    assert rows[0][0] == 0.45


def test_curve_requires_exactly_one_grid_flavor(tmp_path, capsys):
    out_file = str(tmp_path / "c.csv")
    both = cli.main(["curve", "scalar_multiplicative r=0.3", "--grid", "5",
                     "--d-list", "0.1", "--out", out_file])
    neither = cli.main(["curve", "scalar_multiplicative r=0.3", "--out", out_file])
    capsys.readouterr()
    assert both == 2
    assert neither == 2


# ---------------------------------------------------------------------------
# dstar
# ---------------------------------------------------------------------------


def test_dstar_table_marks_unreachable_outputs(capsys):
    code = cli.main(["dstar", "scalar_multiplicative r=0.4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.4" in out  # the silent letter's cost
    assert "*" in out  # x = 0 never produces y = 1
    assert "excluded from the cost" in out


# ---------------------------------------------------------------------------
# cpud
# ---------------------------------------------------------------------------


def test_cpud_scalar_reports_both_routes(capsys):
    code = cli.main(["cpud", "scalar_multiplicative r=0.3"])
    out = capsys.readouterr().out
    assert code == 0
    slope = cd.scalar_small_d_slope(0.3)
    ratio_line = [l for l in out.splitlines() if l.startswith("ratio-formula:")][0]
    assert abs(float(ratio_line.split()[1]) - slope) < 1e-9
    sup_line = [l for l in out.splitlines() if l.startswith("sup-definition:")][0]
    assert abs(float(sup_line.split()[1]) - slope) / slope < 1e-3


def test_cpud_block_is_infinite(capsys):
    code = cli.main(["cpud", "block_multiplicative r=0.5 K=2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("infinite (multiple zero-cost letters)") == 2


# ---------------------------------------------------------------------------
# compound
# ---------------------------------------------------------------------------


def test_compound_reads_prior_family_from_file(tmp_path, capsys):
    spec = tmp_path / "fam.json"
    spec.write_text(json.dumps({
        "preset": "scalar_multiplicative r=0.3",
        "compound": {"priors": [[0.7, 0.3], [0.6, 0.4]]},
    }))
    code = cli.main(["compound", str(spec), "--distortion", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    assert abs(float(_grab(out, "worst-case capacity").split()[0]) - 0.0411493655929831) < 1e-6
    assert _grab(out, "worst prior index") == "0"


def test_compound_without_family_uses_the_models_own_prior(capsys):
    code = cli.main(["compound", "scalar_multiplicative r=0.4", "--distortion", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert abs(float(_grab(out, "worst-case capacity").split()[0]) - R04_CAP_AT_01) < 1e-9


def test_compound_infinite_budget_is_unconstrained_and_nan_exits_2(capsys):
    code = cli.main(["compound", "scalar_multiplicative r=0.3", "--distortion", "inf"])
    out = capsys.readouterr().out
    assert code == 0
    unconstrained = cd.capacity_distortion_point(cd.scalar_multiplicative_model(0.3), 0.3).capacity
    assert abs(float(_grab(out, "worst-case capacity").split()[0]) - unconstrained) < 1e-9

    code = cli.main(["compound", "scalar_multiplicative r=0.3", "--distortion", "nan"])
    err = capsys.readouterr().err
    assert code == 2
    assert "NaN" in err and "linprog" not in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_cli_is_deterministic(capsys):
    argv = ["simulate", "scalar_multiplicative r=0.4", "--optimal-for", "0.1",
            "--samples", "20000", "--seed", "9"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert abs(float(_grab(first, "analytic_distortion")) - 0.1) < 1e-9


def test_simulate_cli_runs_a_trillion_samples(capsys):
    code = cli.main(["simulate", "scalar_multiplicative r=0.4", "--px", "0.5,0.5",
                     "--samples", "1000000000000", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert _grab(out, "samples") == "1000000000000"
    analytic = float(_grab(out, "analytic_distortion"))
    assert abs(float(_grab(out, "empirical_distortion")) - analytic) < 1e-5


def test_simulate_cli_rejects_more_samples_than_int64_holds(capsys):
    code = cli.main(["simulate", "scalar_multiplicative r=0.4", "--px", "0.5,0.5",
                     "--samples", str(2**63), "--seed", "1"])
    assert code == 2
    assert "2**63 - 1" in capsys.readouterr().err


def test_simulate_requires_exactly_one_input_law(capsys):
    base = ["simulate", "scalar_multiplicative r=0.4", "--samples", "100", "--seed", "1"]
    both = cli.main(base + ["--px", "0.5,0.5", "--optimal-for", "0.1"])
    neither = cli.main(base)
    capsys.readouterr()
    assert both == 2
    assert neither == 2


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------


def test_analytic_scalar_table_with_solver_deltas(capsys):
    code = cli.main(["analytic", "--model", "scalar", "--r", "0.4", "--points", "5", "--compare"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 5
    worst_line = [l for l in out.splitlines() if l.startswith("max |closed form")][0]
    assert float(worst_line.split("=")[1].split()[0]) < 1e-6


def test_analytic_block_table(capsys):
    code = cli.main(["analytic", "--model", "block", "--r", "0.5", "--block-len", "2",
                     "--points", "4", "--compare"])
    out = capsys.readouterr().out
    assert code == 0
    assert _grab(out, "case 1") == "false"
    assert abs(float(_grab(out, "C(0)").split()[0]) - 0.27465307216702745) < 1e-12
    assert abs(float(_grab(out, "C(0)/R(0)")) - math.log(3.0) / math.log(2.0)) < 1e-9
    worst_line = [l for l in out.splitlines() if l.startswith("max |closed form")][0]
    assert float(worst_line.split("=")[1].split()[0]) < 1e-6


def test_analytic_block_requires_block_len(capsys):
    code = cli.main(["analytic", "--model", "block", "--r", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


# ---------------------------------------------------------------------------
# malformed inputs
# ---------------------------------------------------------------------------


def test_bad_specs_exit_2(tmp_path, capsys):
    assert cli.main(["point", "no_such_file.json", "--distortion", "0.1"]) == 2
    assert cli.main(["point", "bogus_preset r=0.4", "--distortion", "0.1"]) == 2
    assert cli.main(["point", "scalar_multiplicative q=0.4", "--distortion", "0.1"]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["point", str(broken), "--distortion", "0.1"]) == 2

    missing = tmp_path / "missing.json"
    doc = _scalar_doc()
    del doc["distortion"]
    missing.write_text(json.dumps(doc))
    assert cli.main(["point", str(missing), "--distortion", "0.1"]) == 2
    capsys.readouterr()


def test_oversized_block_exits_2(monkeypatch, capsys):
    # Binary K = 3 has 8 * 2 * 8 = 128 dense entries; a cap one below it
    # stands in for a block length whose dense tensor would not fit.
    monkeypatch.setattr(cd.channel, "DENSE_ENTRY_CAP", 127)
    code = cli.main(["point", "block_multiplicative r=0.3 K=3", "--distortion", "0.1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "exceeds cap 127" in captured.err


def test_out_of_memory_exits_2(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_point", exhausted)
    code = cli.main(["point", "scalar_multiplicative r=0.4", "--distortion", "0.1"])
    assert code == 2
    assert "out of memory" in capsys.readouterr().err


def test_no_subcommand_exits_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()

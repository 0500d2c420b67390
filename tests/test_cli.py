"""Command-line interface: subcommands, formats, and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capdist as cd
from capdist import cli, solver

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


def test_point_additive_mod2_preset(capsys):
    # y = x + s mod 2 reveals the state, so C(0) = log 2 - H(0.2).
    code = cli.main(["point", "additive_mod2 r=0.2", "--distortion", "0"])
    assert code == 0
    assert _grab(capsys.readouterr().out, "C(D) =") == "0.192744757022 nats"
    assert abs(0.192744757022 - (math.log(2.0) + 0.2 * math.log(0.2) + 0.8 * math.log(0.8))) < 1e-12


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
    def fake_point(model, budget):
        return cd.CDPoint(budget, 0.1, cd.InputDistribution([0.5, 0.5]), True,
                          "inner ascent hit its iteration cap")

    monkeypatch.setattr(cli, "capacity_distortion_point", fake_point)
    code = cli.main(["point", "scalar_multiplicative r=0.4", "--distortion", "0.1"])
    captured = capsys.readouterr()
    assert code == 4
    assert "warning:" in captured.err


def _library_channel_0_spec(tmp_path):
    """The first |X| = 8 library channel of the ``points`` workload as a
    spec file, whose unconstrained ascent stalls and hands off to the
    finisher, and its model."""
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
    return str(spec), model


def test_point_uncertified_solve_exits_4(tmp_path, monkeypatch, capsys):
    # A real solve, cut to two Frank-Wolfe steps, whose gap stays above
    # stall_cert (about 1.4e-2).
    spec, model = _library_channel_0_spec(tmp_path)
    d_min, d_max = cd.feasible_range(model)
    budget = repr(d_min + 0.9 * (d_max - d_min))
    assert cli.main(["point", spec, "--distortion", budget]) == 0
    capsys.readouterr()
    monkeypatch.setattr(solver, "BA_MAX_ITER", 2)
    code = cli.main(["point", spec, "--distortion", budget])
    captured = capsys.readouterr()
    assert code == 4
    assert "above stall_cert" in captured.err
    assert "C(D) =" in captured.out


def test_finisher_ending_below_its_start_raises_and_exits_4(tmp_path, monkeypatch, capsys):
    # The unconstrained ascent on this channel hands its law to the
    # finisher; a finisher that reports a value below that law's is a
    # solver fault, raised rather than returned as a point.  The wrapper
    # reports 1e-6 below the law it was handed, whatever the finisher gains.
    spec, model = _library_channel_0_spec(tmp_path)
    d_min, d_max = cd.feasible_range(model)
    budget = 0.5 * (d_min + d_max)
    frank_wolfe = solver._frank_wolfe

    def lowered(objective, polytope, atoms, weights):
        p, _, bound, q_score = frank_wolfe(objective, polytope, atoms, weights)
        start = weights @ atoms / weights.sum()
        return p, float(start @ objective.scores(start)) - 1e-6, bound, q_score

    monkeypatch.setattr(solver, "_frank_wolfe", lowered)
    with pytest.raises(cd.SolverNonmonotone, match="finisher returned below its start"):
        cd.capacity_distortion_point(model, budget)
    code = cli.main(["point", spec, "--distortion", repr(budget)])
    captured = capsys.readouterr()
    assert code == 4
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    assert "C(D)" not in captured.out


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


def test_curve_with_every_budget_below_d_min_writes_only_the_header(tmp_path, capsys):
    # The = form: argparse reads a separate "-0.1,-0.2" as an option.
    out_file = tmp_path / "curve.csv"
    code = cli.main(["curve", "scalar_multiplicative r=0.3", "--d-list=-0.1,-0.2", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 3
    assert "skipping infeasible budgets" in captured.err
    assert out_file.read_text() == cli.CSV_HEADER + "\n"


def test_curve_d_list_takes_a_separate_negative_list(tmp_path, capsys):
    # "-0.1,0.05" after "--d-list" is its value, not an unknown option: the
    # separate form writes what the = form writes.
    runs = []
    for argv in (["--d-list", "-0.1,0.05"], ["--d-list=-0.1,0.05"]):
        out_file = tmp_path / f"curve{len(runs)}.csv"
        code = cli.main(["curve", "scalar_multiplicative r=0.3", *argv, "--out", str(out_file)])
        runs.append((code, capsys.readouterr().err, out_file.read_text()))
    assert runs[0] == runs[1]
    code, err, text = runs[0]
    assert code == 3 and "skipping infeasible budgets" in err
    assert [row[0] for row in cli.read_curve_csv(str(tmp_path / "curve0.csv"))] == [0.05]
    assert text.startswith(cli.CSV_HEADER + "\n")


def test_ragged_compound_priors_name_the_entry(tmp_path, capsys):
    doc = _scalar_doc()
    doc["compound"] = {"priors": [[0.7, 0.3], [0.5, 0.3, 0.2], [1.0]]}
    spec = tmp_path / "ragged.json"
    spec.write_text(json.dumps(doc))
    code = cli.main(["compound", str(spec), "--distortion", "0.1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: field 'compound.priors[1]' has 3 entries, expected 2\n"


def test_curve_convergence_warnings_exit_4(tmp_path, monkeypatch, capsys):
    def fake_curve(model, budgets):
        law = cd.InputDistribution([0.5, 0.5])
        points = [cd.CDPoint(b, 0.1, law, True, None if b == 0.05 else f"gap at {b}") for b in budgets]
        return cd.CDCurve(tuple(points), 0.0, 0.3)

    monkeypatch.setattr(cli, "cd_curve", fake_curve)
    out_file = tmp_path / "curve.csv"
    code = cli.main(["curve", "scalar_multiplicative r=0.3", "--d-list", "0.02,0.05,0.1", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.splitlines() == ["warning at D=0.02: gap at 0.02", "warning at D=0.1: gap at 0.1"]
    assert len(cli.read_curve_csv(str(out_file))) == 3


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


def test_cpud_without_a_zero_cost_letter_reports_the_sup_only(tmp_path, capsys):
    doc = _scalar_doc()
    doc["transition"] = [[[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4], [0.3, 0.7]]]
    spec = tmp_path / "noisy.json"
    spec.write_text(json.dumps(doc))
    code = cli.main(["cpud", str(spec)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 2
    assert lines[0].startswith("ratio-formula: not applicable (") and lines[0].endswith(")")
    assert lines[1].startswith("sup-definition:") and float(lines[1].split()[1]) > 0


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


def test_preset_errors_exit_2_naming_the_problem(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"preset": "bogus r=0.2"}))
    cases = [
        ("scalar_multiplicative r", "'r' is not key=value"),
        ("scalar_multiplicative", "requires r="),
        ("block_multiplicative r=0.3", "requires K="),
        ("additive_mod2 r=0.2 K=3", "unexpected parameters ['K']"),
        (str(bogus), "unknown preset 'bogus r=0.2'"),
        ("scalar_multiplicative r=abc", "preset 'scalar_multiplicative': parameter r=abc is not a number"),
        ("block_multiplicative r=0.3 K=2.5", "preset 'block_multiplicative': parameter K=2.5 is not an integer"),
    ]
    for spec, problem in cases:
        code = cli.main(["point", spec, "--distortion", "0.1"])
        captured = capsys.readouterr()
        assert code == 2, spec
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error:") and problem in line, line


def test_malformed_spec_shapes_exit_2_in_every_subcommand(tmp_path, capsys):
    # Each of these once ended in a traceback with exit 1 (an AttributeError
    # or TypeError in load_spec or the compound family); a null priors list
    # once meant the model's own prior, and a ragged or wrong-length one
    # exited 0 outside `compound`.  A size given as a string once read
    # "declared size x=2 but tensors imply 2".
    shapes = [
        ("sizes", "2", "'sizes'"),
        ("sizes", [2, 2, 2], "'sizes'"),
        ("sizes", {"x": "2"}, "field 'sizes.x' must be an integer"),
        ("transition", [[{"a": 1}]], "'transition'"),
        ("compound", {"priors": [[0.7, {"a": 1}]]}, "'compound.priors[0]'"),
        ("compound", {"priors": 5}, "'compound'"),
        ("compound", {"priors": None}, "'compound'"),
        ("compound", {"priors": [[0.5, 0.5], [1.0]]}, "'compound.priors[1]' has 1 entries, expected 2"),
        ("compound", {"priors": [[0.2, 0.3, 0.5]]}, "'compound.priors[0]' has 3 entries, expected 2"),
        ("compound", {"priors": []}, "'compound.priors'"),
    ]
    for i, (key, value, field) in enumerate(shapes):
        doc = _scalar_doc()
        doc[key] = value
        spec = tmp_path / f"spec{i}.json"
        spec.write_text(json.dumps(doc))
        for argv in (
            ["point", str(spec), "--distortion", "0.1"],
            ["curve", str(spec), "--grid", "3", "--out", str(tmp_path / "c.csv")],
            ["cpud", str(spec)],
            ["compound", str(spec), "--distortion", "0.1"],
            ["dstar", str(spec)],
            ["simulate", str(spec), "--px", "0.5,0.5", "--samples", "10", "--seed", "1"],
        ):
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code == 2, (key, value, argv[0])
            assert err.startswith("error: ") and err.count("\n") == 1, (key, value, argv[0], err)
            assert field in err, err


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


# Numbers as a spec may hold them: probabilities, any float, integers beyond
# the float range, and strings numpy parses as NaN, inf or nothing.
_NUMBER = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.sampled_from([10**400, -(10**400)]),
    st.sampled_from(["NaN", "nan", "inf", "-Infinity", "1e999", "0.5", ""]),
)
_TREE = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBER, st.text(max_size=4)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=10,
)


def _ragged(depth):
    """Nested lists of numbers, each list of its own length (empty included)."""
    arrays = st.lists(_NUMBER, max_size=3)
    for _ in range(depth - 1):
        arrays = st.lists(arrays, max_size=3)
    return arrays


_PRESET = st.builds(
    "{} r={} K={}".format,
    st.sampled_from(["scalar_multiplicative", "block_multiplicative", "additive_mod2", "bogus"]),
    st.sampled_from(["0.3", "0", "1", "-1", "2", "nan", "inf", "x"]),
    st.sampled_from(["-1", "0", "1", "3", "13", "64", "1000000", "9" * 5000, "1.5", "x"]),
)
_FIELDS = {
    "sizes": st.one_of(_TREE, st.fixed_dictionaries({}, optional={k: _TREE for k in "xys"})),
    "transition": st.one_of(_ragged(3), _ragged(2), _TREE),
    "state_prior": st.one_of(_ragged(1), _TREE),
    "distortion": st.one_of(_ragged(2), _TREE),
    "compound": st.one_of(_TREE, st.fixed_dictionaries({"priors": st.one_of(_ragged(2), _TREE)})),
    "preset": st.one_of(_PRESET, _TREE),
}


@st.composite
def _degenerate_channel(draw):
    """A valid spec of at most 3 letters, states and outputs whose rows are
    point masses or uniform: tied letters, silent letters, one state."""
    nx, ns, ny = (draw(st.integers(1, 3)) for _ in range(3))

    def law(n):
        k = draw(st.integers(0, n))
        return [1.0 / n] * n if k == n else [float(i == k) for i in range(n)]

    return {
        "sizes": {"x": nx, "y": ny, "s": ns},
        "transition": [[law(ny) for _ in range(ns)] for _ in range(nx)],
        "state_prior": law(ns),
        "distortion": [[draw(st.sampled_from([0.0, 0.5, 1.0, 1e300])) for _ in range(ns)] for _ in range(ns)],
    }


# A valid spec with some fields replaced or dropped, or any JSON at all.
_SPEC = st.one_of(
    st.builds(
        lambda doc, changed, dropped: {k: v for k, v in {**doc, **changed}.items() if k not in dropped},
        st.one_of(st.builds(_scalar_doc), _degenerate_channel()),
        st.lists(st.sampled_from(sorted(_FIELDS)), max_size=2, unique=True).flatmap(
            lambda keys: st.fixed_dictionaries({k: _FIELDS[k] for k in keys})),
        st.sets(st.sampled_from(sorted(_FIELDS)), max_size=1),
    ),
    _TREE,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=_SPEC, budget=st.sampled_from(["0.1", "0", "-1", "nan", "inf"]))
@example(doc={**_scalar_doc(), "state_prior": [0.5, 10**400]}, budget="0.1")
def test_hostile_specs_exit_with_a_documented_code(doc, budget):
    # Every spec, however malformed, ends in exit 0, 2, 3 or 4; a failure
    # prints one `error:` line (or, for a flagged point, `warning:` lines),
    # never a traceback.  The pinned example, an integer beyond the float
    # range, once raised OverflowError out of load_spec (exit 1).
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (
            ["point", spec, "--distortion", budget],
            ["dstar", spec],
            ["curve", spec, "--grid", "3", "--out", os.path.join(tmp, "c.csv")],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            lines = err.getvalue().splitlines()
            case = (argv[0], doc, lines)
            assert code in (0, 2, 3, 4), case
            if lines[:1] and lines[0].startswith("error: "):
                assert code != 0 and len(lines) == 1, case
            elif code != 0:
                assert code == 4 and lines and all(line.startswith("warning") for line in lines), case

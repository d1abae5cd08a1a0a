import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sweepsolve
from sweepsolve import cli
from sweepsolve.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def drift_file(tmp_path, scenario_dir):
    return str(scenario_dir / "drift_halfspace_1d.json")


def test_solve_writes_csv_and_summary(tmp_path, drift_file):
    out = tmp_path / "solve"
    code = run_cli("solve", "--scenario", drift_file, "--out", str(out), "--lam", "0.05")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lambda"] == 0.05
    assert summary["bound_satisfied"] is True
    assert (out / summary["trajectory_csv"]).exists()


def test_sweep_report_contents(tmp_path, drift_file):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--scenario", drift_file, "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("phi_max", "phi_bound", "bound_satisfied", "lipschitz_estimate",
                "lipschitz_bound", "convergence_table"):
        assert key in report
    table = report["convergence_table"]
    assert len(table) == 3
    diffs = [row["sup_diff"] for row in table]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert report["bound_satisfied"] is True
    assert len(list(out.glob("trajectory_lam*.csv"))) == 4


def test_diagnose_round_trip_phi_max(tmp_path, drift_file):
    out = tmp_path / "art"
    assert run_cli("solve", "--scenario", drift_file, "--out", str(out), "--lam", "0.05") == 0
    summary = json.loads((out / "summary.json").read_text())
    traj_csv = out / summary["trajectory_csv"]
    assert run_cli("diagnose", "--scenario", drift_file, "--traj", str(traj_csv),
                   "--out", str(out)) == 0
    diag = json.loads((out / "diagnose.json").read_text())
    assert diag["phi_max"] == summary["phi_max"]  # bit-exact round trip
    assert abs(diag["phi_max"] - summary["phi_max"]) <= 1e-12


@pytest.mark.parametrize("cut, found", [
    (lambda rows: rows[:10], "covers [0, 0.089999999999999997] from x = [0.0, 0.0]"),
    (lambda rows: rows[10:], "covers [0.10000000000000001, 2] from x = "),
    (lambda rows: ["0,0.5,0,0,0,0"] + rows[1:], "covers [0, 2] from x = [0.5, 0.0]"),
], ids=["cut_short", "started_late", "started_off_x0"])
def test_diagnose_refuses_a_partial_trajectory(tmp_path, scenario_dir, capsys, cut, found):
    # a CSV cut short, started late or started off x0 is not the scenario's trajectory
    ball = str(scenario_dir / "moving_ball_escape.json")
    assert run_cli("solve", "--scenario", ball, "--out", str(tmp_path / "solve"), "--lam", "0.1") == 0
    comment, header, *rows = (tmp_path / "solve" / "trajectory_lam0.1.csv").read_text().splitlines()
    part = tmp_path / "part.csv"
    part.write_text("\n".join([comment, header, *cut(rows)]) + "\n")
    capsys.readouterr()
    assert run_cli("diagnose", "--scenario", ball, "--traj", str(part),
                   "--out", str(tmp_path / "diag")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {part}: trajectory {found}")
    assert "scenario needs [0, 2] from x0 = [0.0, 0.0]" in err
    assert not (tmp_path / "diag" / "diagnose.json").exists()


def test_estimate_set_wedge_alpha(tmp_path, scenario_dir):
    out = tmp_path / "est"
    code = run_cli("estimate-set", "--scenario", str(scenario_dir / "wedge_rising.json"),
                   "--out", str(out))
    assert code == 0
    payload = json.loads((out / "set_estimates.json").read_text())
    assert payload["alpha_estimate"] == pytest.approx(math.sqrt(2) / 2, abs=0.01)


def test_validation_failure_exit_code(tmp_path, drift_file):
    bad = json.loads(open(drift_file).read())
    bad["assumed"]["rho"] = 0.01  # every listed lambda violates the gate
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code = run_cli("solve", "--scenario", str(bad_path), "--out", str(tmp_path / "o"))
    assert code == 1


@pytest.mark.parametrize("command", ["solve", "diagnose --lam", "diagnose header"])
def test_penalty_gate_holds_for_a_lambda_not_in_the_scenario(tmp_path, drift_file, capsys,
                                                             command):
    # rho = 0.5 puts the gate at 0.5: lambdas = [0.1] passes, lambda = 5 does not
    doc = json.loads(open(drift_file).read())
    doc["assumed"]["rho"] = 0.5
    doc["lambdas"] = [0.1]
    gated = tmp_path / "gated.json"
    gated.write_text(json.dumps(doc))
    # a CSV whose header carries lambda = 5, solved where rho is infinite
    assert run_cli("solve", "--scenario", drift_file, "--out", str(tmp_path / "free"),
                   "--lam", "5") == 0
    csv = str(tmp_path / "free" / "trajectory_lam5.csv")
    out = tmp_path / "out"
    argv = {"solve": ["solve", "--lam", "5"],
            "diagnose --lam": ["diagnose", "--traj", csv, "--lam", "5"],
            "diagnose header": ["diagnose", "--traj", csv]}[command]
    capsys.readouterr()
    assert run_cli(*argv, "--scenario", str(gated), "--out", str(out)) == 1
    assert "penalty-gate" in capsys.readouterr().err
    assert not any(out.glob("*.json"))


def test_penalty_gate_is_checked_before_integrating(tmp_path, drift_file, monkeypatch):
    doc = json.loads(open(drift_file).read())
    doc["assumed"]["rho"] = 0.5         # the gate sits at 0.5
    doc["lambdas"] = [0.1]
    gated = tmp_path / "gated.json"
    gated.write_text(json.dumps(doc))

    def refuse(*args):
        raise AssertionError("integrated a lambda the gate rejects")
    monkeypatch.setattr(cli, "integrate", refuse)
    out = tmp_path / "out"
    assert run_cli("solve", "--lam", "5", "--scenario", str(gated), "--out", str(out)) == 1
    assert not any(out.glob("*.csv"))


def test_repeated_main_calls_match_fresh_processes(tmp_path, drift_file):
    # one parser serves every call in a process: no flag may leak into the next
    runs = [["solve", "--lam", "0.05"], ["solve"]]
    src = str(Path(sweepsolve.__file__).resolve().parent.parent)
    for i, argv in enumerate(runs):
        assert run_cli(*argv, "--scenario", drift_file, "--out", str(tmp_path / "same" / str(i))) == 0
        subprocess.run([sys.executable, "-m", "sweepsolve.cli", *argv, "--scenario", drift_file,
                        "--out", str(tmp_path / "fresh" / str(i))],
                       env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=True,
                       timeout=60)
    for i in range(len(runs)):
        same, fresh = tmp_path / "same" / str(i), tmp_path / "fresh" / str(i)
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(p.name for p in same.iterdir()) and len(names) == 2
        for name in names:
            assert (same / name).read_bytes() == (fresh / name).read_bytes(), (i, name)


def test_diagnose_refuses_columns_it_did_not_write(tmp_path, drift_file, capsys):
    # four columns, but not t, x_1, z_1, phi: a phi of 0 must not certify anything
    path = tmp_path / "renamed.csv"
    path.write_text("# lambda = 0.1\nt,a,b,phi\n0,0,0,0\n1,1,1,0\n")
    code = run_cli("diagnose", "--scenario", drift_file, "--traj", str(path),
                   "--out", str(tmp_path / "diag"))
    assert code == 1 and not (tmp_path / "diag" / "diagnose.json").exists()
    err = capsys.readouterr().err
    assert err == f"error: {path}: unexpected column layout ['t', 'a', 'b', 'phi']\n"


def test_sweep_of_an_emptying_set_fails_every_lambda(tmp_path):
    # {z_1 <= -0.3 + 0.5 x_1} and {z_1 >= 0} meet only while x_1 >= 0.6: from x_1 = 0.7 the
    # penalty pulls x_1 below that, so each lambda stops mid-horizon with the set empty
    doc = {"problem": {"dimension": 2, "horizon": 1.0, "x0": [0.7, 0.0], "allow_infeasible_start": True},
           "operator": {"kind": "identity"},
           "set": {"kind": "half_space_intersection", "members": [
               {"normal": [1.0, 0.0], "beta0": -0.3, "state_gain": 0.5, "state_direction": [1.0, 0.0]},
               {"normal": [-1.0, 0.0]}]},
           "lambdas": [0.1, 0.05], "assumed": {"alpha": 1.0, "rho": "inf"}}
    scenario = tmp_path / "emptying.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--scenario", str(scenario), "--out", str(out)) == 1
    report = json.loads((out / "report.json").read_text())
    for entry in report["per_lambda"]:
        assert entry["status"].startswith("EmptyInstance: half-space intersection is empty at t = ")
        for key in ("phi_max", "phi_bound", "worst_ratio", "lipschitz_estimate", "lipschitz_bound"):
            assert entry[key] is None, key      # NaN, written as null
    for key in ("phi_max", "phi_bound", "worst_ratio", "lipschitz_estimate"):
        assert report[key] is None, key
    assert not any(out.glob("trajectory_lam*.csv"))


def test_sweep_of_a_big_convex_set_reports_alpha_one(tmp_path):
    # a static ball of radius 10 with rho = inf: a tube sample spread 4 around its centre never
    # reached the boundary, and alpha_estimate read null; a convex set's alpha is exactly 1
    doc = {"problem": {"dimension": 2, "horizon": 1.0, "x0": [0.0, 0.0]}, "operator": {"kind": "identity"},
           "set": {"kind": "ball", "center": [0.0, 0.0], "radius": 10.0}, "lambdas": [0.1],
           "assumed": {"alpha": 1.0, "rho": "inf"}}
    scenario = tmp_path / "big_ball.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--scenario", str(scenario), "--out", str(out)) == 0
    assert json.loads((out / "report.json").read_text())["alpha_estimate"] == 1.0


def test_diagnose_needs_a_lambda(tmp_path, drift_file, capsys):
    # the catching-up oracle's trajectory has no lambda, so its CSV has no "# lambda" line
    path = tmp_path / "oracle.csv"
    sweepsolve.write_trajectory_csv(path, sweepsolve.catching_up(sweepsolve.load_scenario(drift_file), 0.01))
    assert not path.read_text().startswith("#")
    out = tmp_path / "diag"
    capsys.readouterr()
    assert run_cli("diagnose", "--scenario", drift_file, "--traj", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: trajectory CSV carries no lambda; pass --lam\n"
    assert not (out / "diagnose.json").exists()
    assert run_cli("diagnose", "--scenario", drift_file, "--traj", str(path), "--out", str(out), "--lam", "0.05") == 0
    assert json.loads((out / "diagnose.json").read_text())["lambda"] == 0.05


def test_failed_bound_exit_code(tmp_path, drift_file):
    # a trajectory diagnosed against a much smaller lambda fails the tube bound
    out = tmp_path / "art"
    assert run_cli("solve", "--scenario", drift_file, "--out", str(out), "--lam", "0.2") == 0
    traj_csv = out / "trajectory_lam0.2.csv"
    code = run_cli("diagnose", "--scenario", drift_file, "--traj", str(traj_csv),
                   "--out", str(out), "--lam", "0.01")
    assert code == 2


def test_outputs_byte_identical_for_same_inputs(tmp_path, drift_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("sweep", "--scenario", drift_file, "--out", str(out1), "--seed", "7") == 0
    assert run_cli("sweep", "--scenario", drift_file, "--out", str(out2), "--seed", "7") == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_a_bad_document_exits_1_with_its_message(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": [], "operator": {"kind": "identity"}, "set": {}, "lambdas": [0.1]}))
    assert run_cli("solve", "--scenario", str(bad), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == ["error: problem: expected an object, got list"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [("solve",), ("sweep",), ("diagnose", "--traj", "unused.csv"), ("estimate-set",)],
                         ids=lambda argv: argv[0])
def test_a_scenario_that_is_not_utf8_exits_1_naming_its_byte(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"a": 1}\xff')
    assert run_cli(*argv, "--scenario", str(bad), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: byte 8 (0xff) is not UTF-8: invalid start byte"]
    assert not (tmp_path / "out").exists()
    with pytest.raises(sweepsolve.ParseError, match=r": byte 8 \(0xff\) is not UTF-8"):
        sweepsolve.load_scenario(bad)


def test_sweep_refuses_an_unbounded_grid(tmp_path, drift_file, capsys):
    doc = json.loads(open(drift_file).read())
    doc["output"] = {"grid_points": 10**30}
    path = tmp_path / "huge_grid.json"
    path.write_text(json.dumps(doc))
    assert run_cli("sweep", "--scenario", str(path), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: output: grid_points must lie in [2, 1000000], got {10**30}"]


def test_missing_file_is_reported(tmp_path):
    code = run_cli("solve", "--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path))
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("solve", "--lam", "0"),
    ("solve", "--lam", "-0.05"),
    ("diagnose", "--traj", "unused.csv", "--lam", "nan"),
    ("sweep", "--seed", "-1"),
    ("estimate-set", "--r", "a,1"),
    ("estimate-set", "--r", "-1"),
    ("estimate-set", "--r", ","),
    ("estimate-set", "--samples", "0"),
    ("estimate-set", "--alpha-samples", "0"),
    ("sweep", "--bogus"),           # unknown option
    ("solve", None),                # None: no --scenario
    ("bogus",),                     # unknown subcommand
    ("sweep", "--jobs", "2"),       # removed option
])
def test_bad_numeric_argument_is_one_error_line(tmp_path, drift_file, capsys, argv):
    scenario = () if None in argv else ("--scenario", drift_file)
    code = run_cli(argv[0], *scenario, "--out", str(tmp_path),
                   *(a for a in argv[1:] if a is not None))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not any(tmp_path.iterdir())  # rejected before any work


@pytest.mark.parametrize("argv, message", [
    (("solve", "--lam", "inf"), "argument --lam: must be a positive finite number, got 'inf'"),
    (("diagnose", "--traj", "unused.csv", "--lam", "x"), "argument --lam: must be a positive finite number, got 'x'"),
    (("sweep", "--seed", "1.5"), "argument --seed: must be an integer >= 0, got '1.5'"),
    (("estimate-set", "--r", "1, 2,-3"), "argument --r: must be a positive finite number, got '-3'"),
    (("estimate-set", "--r", " , "), "argument --r: must list at least one radius"),
    (("estimate-set", "--alpha-samples", "-2"), "argument --alpha-samples: must be an integer >= 1, got '-2'"),
])
def test_an_argument_is_checked_by_its_type(tmp_path, drift_file, capsys, argv, message):
    assert run_cli(argv[0], "--scenario", drift_file, "--out", str(tmp_path), *argv[1:]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_radii_skip_blank_items():
    args = cli.build_parser().parse_args(["estimate-set", "--scenario", "s.json", "--r", " 2,,0.5 ,"])
    assert args.r == [2.0, 0.5]
    assert cli.build_parser().parse_args(["estimate-set", "--scenario", "s.json"]).r == [1.0, 10.0]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--help")
    assert exc.value.code == 0
    assert "--scenario" in capsys.readouterr().out


def test_module_entry_exits_with_mains_code(tmp_path, drift_file, capsys, monkeypatch):
    # ``python -m sweepsolve.cli``, run in this process: runpy warns that the module is imported already
    monkeypatch.setattr(sys, "argv", ["sweepsolve.cli", "solve", "--scenario", drift_file, "--out", str(tmp_path),
                                      "--lam", "0"])
    with pytest.warns(RuntimeWarning, match="'sweepsolve.cli' found in sys.modules"), \
            pytest.raises(SystemExit) as exc:
        runpy.run_module("sweepsolve.cli", run_name="__main__")
    assert exc.value.code == 1
    assert capsys.readouterr().err == "error: argument --lam: must be a positive finite number, got '0'\n"


def test_sweep_from_a_huge_start_names_the_infinite_sample_radius(tmp_path, capsys):
    # x0 = -1e308 is finite, but |A(x0)|, and with it kappa_tilde's sample radius, overflows
    doc = {"problem": {"dimension": 1, "horizon": 1.0, "x0": [-1e308]}, "operator": {"kind": "identity"},
           "set": {"kind": "half_space", "normal": [1.0]}, "lambdas": [0.1], "assumed": {"alpha": 1.0, "rho": "inf"}}
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sweep", "--scenario", str(scenario), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: sample ball radius must be finite, got inf\n"


def test_sweep_over_huge_steps_measures_them_without_overflow(tmp_path):
    # T = 1e300 and lambdas near it: each RK4 step moves about 1e298, whose square overflows;
    # the step norms are rescaled, so the slope reads its true value, below 1
    doc = {"problem": {"dimension": 1, "horizon": 1e300, "x0": [0.0]}, "operator": {"kind": "identity"},
           "set": {"kind": "half_space", "normal": [-1.0], "drift": -1.0}, "lambdas": [1e299, 5e298]}
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sweep", "--scenario", str(scenario), "--out", str(tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert 0.0 < report["lipschitz_estimate"] <= 1.0 + 1e-9
    assert all(math.isfinite(row["sup_diff"]) for row in report["convergence_table"])


def test_estimate_set_names_an_overflowing_intersection_gap(tmp_path, capsys):
    # a face drifting at -1e300 leaves every sample about 1e300 from the set by t = 1
    doc = {"problem": {"dimension": 2, "horizon": 1.0, "x0": [0.0, 0.0]}, "operator": {"kind": "identity"},
           "set": {"kind": "half_space_intersection", "members": [{"normal": [1.0, 0.0], "drift": -1e300},
                                                                  {"normal": [0.0, 1.0]}]},
           "lambdas": [0.1]}
    scenario = tmp_path / "drift.json"
    scenario.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("estimate-set", "--scenario", str(scenario), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: squared gap to the half-space intersection overflows\n"


def test_sweep_integrates_each_lambda_once(tmp_path, drift_file, monkeypatch):
    from sweepsolve import analysis, cli, dynamics

    calls = []

    def counting(scenario, lam):
        calls.append(lam)
        return dynamics.integrate(scenario, lam)

    monkeypatch.setattr(analysis, "integrate", counting)
    monkeypatch.setattr(cli, "integrate", counting)
    assert run_cli("sweep", "--scenario", drift_file, "--out", str(tmp_path)) == 0
    assert calls == json.loads(open(drift_file).read())["lambdas"]


def test_sweep_csv_matches_solve_csv(tmp_path, drift_file):
    sweep_out = tmp_path / "sweep"
    assert run_cli("sweep", "--scenario", drift_file, "--out", str(sweep_out)) == 0
    for lam in json.loads(open(drift_file).read())["lambdas"]:
        solve_out = tmp_path / f"solve_{lam}"
        assert run_cli("solve", "--scenario", drift_file, "--out", str(solve_out),
                       "--lam", str(lam)) == 0
        name = f"trajectory_lam{lam:g}.csv"
        assert (sweep_out / name).read_bytes() == (solve_out / name).read_bytes(), name


@pytest.mark.parametrize("command, extra, payload", [
    ("sweep", [], "report.json"), ("solve", ["--lam", "0.05"], "summary.json")])
def test_finite_rho_computes_kappa_tilde_once(tmp_path, drift_file, monkeypatch,
                                              command, extra, payload):
    # the penalty gate needs kappa_tilde at parse time; the command reuses it
    from sweepsolve import analysis, parse_scenario
    from sweepsolve.analysis import SamplerConfig

    doc = json.loads(open(drift_file).read())
    doc["assumed"] = {"alpha": 1.0, "rho": 10.0}
    path = tmp_path / "finite_rho.json"
    path.write_text(json.dumps(doc))
    calls = []
    real = analysis.estimate_kappa
    monkeypatch.setattr(analysis, "estimate_kappa",
                        lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
    out = tmp_path / "out"
    assert run_cli(command, "--scenario", str(path), "--out", str(out), *extra) == 0
    assert len(calls) == 2          # one kappa_tilde: one estimate at each of two radii
    got = json.loads((out / payload).read_text())["kappa_tilde"]
    fresh = analysis.kappa_tilde(parse_scenario(path.read_text()), sampler=SamplerConfig())
    assert got == fresh.value


_IMPORT_PROBE = """
import sys

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.startswith("concurrent.futures"))

import sweepsolve
print(heavy())
from sweepsolve import cli
code = cli.main(["sweep", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(code, heavy())
"""


def test_import_and_sweep_load_no_scipy(tmp_path, scenario_dir):
    # a fresh interpreter: this process has SciPy loaded already
    src = str(Path(sweepsolve.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(scenario_dir / "corner_push_dykstra.json"),
         str(tmp_path / "sweep")],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "[]", f"import sweepsolve loaded {lines[0]}"
    assert lines[-1] == "0 []", f"sweep exited or loaded {lines[-1]}"


def test_solve_and_diagnose_agree_on_every_corpus_scenario(tmp_path, scenario_dir):
    # diagnose re-reads solve's CSV, which round-trips every float exactly
    for path in sorted(scenario_dir.glob("*.json")):
        out = tmp_path / path.stem
        code = run_cli("solve", "--scenario", str(path), "--out", str(out), "--seed", "1")
        summary = json.loads((out / "summary.json").read_text())
        assert run_cli("diagnose", "--scenario", str(path), "--out", str(out), "--seed", "1",
                       "--traj", str(out / summary["trajectory_csv"])) == code, path.stem
        diag = json.loads((out / "diagnose.json").read_text())
        assert summary.pop("subcommand") == "solve" and diag.pop("subcommand") == "diagnose"
        assert diag.pop("trajectory_csv") == str(out / summary.pop("trajectory_csv"))
        assert set(summary) >= {"kappa_tilde", "bound_satisfied", "lipschitz_ok", "worst_ratio"}
        assert diag == summary, path.stem


def test_sweep_writes_one_csv_per_lambda_when_g_tags_collide(tmp_path, drift_file, capsys):
    # 0.1000001 formats as 0.1 under %g: it is named by its repr instead
    doc = json.loads(open(drift_file).read())
    doc["lambdas"] = [0.1000001, 0.1]
    path = tmp_path / "close_lambdas.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("sweep", "--scenario", str(path), "--out", str(out)) == 0
    assert sorted(p.name for p in out.glob("trajectory_lam*.csv")) == [
        "trajectory_lam0.1.csv", "trajectory_lam0.1000001.csv"]
    for lam in doc["lambdas"]:
        assert sweepsolve.read_trajectory_csv(out / f"trajectory_lam{lam!r}.csv").lam == lam
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["lambda=0.1000001", "lambda=0.1"]


def test_estimate_set_keys_each_radius_when_g_texts_collide(tmp_path, drift_file, capsys):
    # 0.1000001 formats as 0.1 under %g: it is keyed by its repr instead
    out = tmp_path / "est"
    assert run_cli("estimate-set", "--scenario", drift_file, "--out", str(out),
                   "--r", "0.1000001,0.1", "--seed", "1") == 0
    payload = json.loads((out / "set_estimates.json").read_text())
    assert sorted(payload["kappa_estimates"]) == ["0.1", "0.1000001"]
    assert [s["r"] for s in payload["hausdorff_samples"]] == [0.1000001, 0.1]
    assert "kappa={'0.1000001': " in capsys.readouterr().out


def test_public_names_resolve():
    assert len(set(sweepsolve.__all__)) == len(sweepsolve.__all__)
    assert [name for name in sweepsolve.__all__ if not hasattr(sweepsolve, name)] == []

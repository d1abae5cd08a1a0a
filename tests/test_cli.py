import json
import math

import numpy as np
import pytest

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


def test_jobs_parallel_outputs_identical(tmp_path, drift_file):
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert run_cli("sweep", "--scenario", drift_file, "--out", str(out1), "--jobs", "1") == 0
    assert run_cli("sweep", "--scenario", drift_file, "--out", str(out2), "--jobs", "3") == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


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
])
def test_bad_numeric_argument_is_one_error_line(tmp_path, drift_file, capsys, argv):
    code = run_cli(argv[0], "--scenario", drift_file, "--out", str(tmp_path), *argv[1:])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not any(tmp_path.iterdir())  # rejected before any work


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
    from sweepsolve.analysis import FarParameters, SamplerConfig

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
    fresh = analysis.kappa_tilde(parse_scenario(path.read_text()),
                                 FarParameters(1.0, 10.0), SamplerConfig())
    assert got == fresh.value

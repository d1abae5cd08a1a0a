"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np

import sweepsolve as sw
from sweepsolve.analysis import kappa_tilde
from sweepsolve.set_zoo import HalfSpaceInstance
from conftest import drift_halfspace_scenario, decay_scenario, moving_ball_scenario

SQRT2_HALF = math.sqrt(2.0) / 2.0


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_halfspace_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        zeta = rng.standard_normal(n)
        zeta /= np.linalg.norm(zeta)
        beta = float(rng.uniform(-2.0, 2.0))
        inst = HalfSpaceInstance(zeta, beta)
        Z = rng.uniform(-5.0, 5.0, size=(1000, n))
        expected = np.maximum(Z @ zeta - beta, 0.0)
        worst = max(worst, float(np.max(np.abs(inst.distance_many(Z) - expected))))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-12 and elapsed < 1.0,
            f"max |d - positive part| = {worst:.2e} over 20x1000 points, {elapsed:.2f}s")


def test_criterion_02_wedge_alpha():
    start = time.perf_counter()
    inst = sw.instantiate(sw.WedgeSpec(apex=[0.0, 0.0]), 0.0, np.zeros(2))
    alpha = sw.estimate_alpha(inst, rho=1.0, sample_count=10000, seed=0)
    elapsed = time.perf_counter() - start
    _report(2, abs(alpha - SQRT2_HALF) <= 0.01 and elapsed < 1.0,
            f"alpha = {alpha:.4f} vs sqrt(2)/2 = {SQRT2_HALF:.4f}, {elapsed:.2f}s")


def test_criterion_03_tube_bound():
    start = time.perf_counter()
    ok = True
    details = []
    for lam in (0.1, 0.02):
        sc = drift_halfspace_scenario(lambdas=(lam,), h_max=lam / 50.0)
        traj = sw.integrate(sc, lam)
        phi_max = float(np.max(traj.phis))
        phi_T = float(traj.phis[-1])
        ok &= phi_max <= 1.02 * lam and phi_T >= 0.9 * lam
        details.append(f"lam={lam:g}: max={phi_max:.5f} end={phi_T:.5f}")
    elapsed = time.perf_counter() - start
    _report(3, ok and elapsed < 2.0, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_04_degenerate_decay():
    start = time.perf_counter()
    lam = 0.1
    sc = decay_scenario(gamma=2.0, T=0.1, lambdas=(lam,), h_max=lam / 100.0)
    traj = sw.integrate(sc, lam)
    err = abs(float(traj.states[-1, 0]) - math.exp(-2.0))
    elapsed = time.perf_counter() - start
    _report(4, err <= 1e-4 and elapsed < 1.0,
            f"x(0.1) = {traj.states[-1, 0]:.6f}, |err| = {err:.2e}, {elapsed:.2f}s")


def test_criterion_05_trajectory_lipschitz(scenario_dir):
    start = time.perf_counter()
    rows = []
    ok = True
    seen = set()
    for path in sorted(scenario_dir.glob("*.json")):
        sc = sw.load_scenario(path)
        if sc.allow_infeasible_start:
            continue
        seen.add(path.name)
        kt = kappa_tilde(sc)
        bound = kt.value / sc.margin
        traj = sw.integrate(sc, sc.lambdas[-1])
        lip = sw.lipschitz_estimate(traj)
        good = lip <= 1.05 * bound + 1e-12
        ok &= good
        rows.append(f"{path.stem}: {lip:.3f} <= 1.05*{bound:.3f} {'ok' if good else 'VIOLATED'}")
    elapsed = time.perf_counter() - start
    corpus_ok = (len(seen) >= 6
                 and "tracking_halfline_state_feedback.json" in seen
                 and "wedge_rising.json" in seen)
    _report(5, ok and corpus_ok and elapsed < 30.0,
            f"{len(seen)} admissible scenarios, {elapsed:.1f}s | " + " | ".join(rows))


def test_criterion_06_lambda_convergence():
    start = time.perf_counter()
    sc = drift_halfspace_scenario(lambdas=(0.2, 0.1, 0.05, 0.025))
    report = sw.lambda_sweep(sc)
    diffs = [row[2] for row in report.convergence_table]
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    ratios = [b / a for a, b in zip(diffs, diffs[1:])]
    ratios_ok = all(0.3 <= r <= 0.8 for r in ratios)
    elapsed = time.perf_counter() - start
    _report(6, decreasing and ratios_ok and elapsed < 10.0,
            f"sup_diffs = {[f'{d:.4f}' for d in diffs]}, "
            f"ratios = {[f'{r:.3f}' for r in ratios]}, {elapsed:.1f}s")


def test_criterion_07_oracle_agreement():
    start = time.perf_counter()
    lam, h = 0.02, 0.01
    tol = 5.0 * (lam + h)
    rows = []
    ok = True
    for gamma in (1.0, 2.0):
        for name, sc in (("drift", drift_halfspace_scenario(lambdas=(lam,), gamma=gamma)),
                         ("ball", moving_ball_scenario(lambdas=(lam,), gamma=gamma))):
            gap = sw.sup_diff(sw.integrate(sc, lam), sw.catching_up(sc, h))
            ok &= gap <= tol
            rows.append(f"{name}/gamma={gamma:g}: {gap:.4f}")
    elapsed = time.perf_counter() - start
    _report(7, ok and elapsed < 10.0,
            f"sup_diff <= {tol:.2f}: " + ", ".join(rows) + f", {elapsed:.1f}s")


def test_criterion_08_kappa_and_state_moduli():
    start = time.perf_counter()
    drift = sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0)
    t_pairs = [(0.0, 0.25), (0.25, 0.5), (0.0, 1.0)]
    kappas = {}
    for r in (1.0, 10.0):
        k, _ = sw.estimate_kappa(drift, r, t_pairs, [])
        kappas[r] = k
    kappa_ok = all(abs(k - 1.0) <= 0.05 for k in kappas.values())

    feedback = sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0,
                                state_gain=-0.5, state_direction=[1.0])
    _, L_hat = sw.estimate_kappa(feedback, 1.0, [(0.0, 0.5)],
                                 [(np.zeros(1), np.ones(1)), (np.zeros(1), -np.ones(1))])
    L_ok = abs(L_hat - 0.5) <= 0.025
    elapsed = time.perf_counter() - start
    _report(8, kappa_ok and L_ok and elapsed < 5.0,
            f"kappa(r=1)={kappas[1.0]:.4f}, kappa(r=10)={kappas[10.0]:.4f}, "
            f"L_hat={L_hat:.4f}, {elapsed:.1f}s")


def test_criterion_09_rotation_hausdorff_bound():
    start = time.perf_counter()
    rate, dt, r = 1.0, 0.01, 1.0
    spec = sw.HalfSpaceSpec(normal=[1.0, 0.0], rotation_rate=rate,
                            rotation_partner=[0.0, 1.0])
    a = sw.instantiate(spec, 0.0, np.zeros(2))
    b = sw.instantiate(spec, dt, np.zeros(2))
    h = sw.truncated_hausdorff(a, b, r)
    upper = rate * dt * (r + 1.0) + 1e-3
    lower = 0.5 * rate * dt
    elapsed = time.perf_counter() - start
    _report(9, lower <= h <= upper and elapsed < 2.0,
            f"haus = {h:.5f} in [{lower:.5f}, {upper:.5f}], {elapsed:.2f}s")


def test_criterion_10_validation_gates():
    start = time.perf_counter()
    base = {
        "problem": {"dimension": 1, "horizon": 1.0, "x0": [0.0]},
        "operator": {"kind": "identity"},
        "set": {"kind": "half_space", "normal": [-1.0], "drift": -1.0},
        "lambdas": [0.1, 0.05],
    }
    rng = np.random.default_rng(7)
    kinds = ("H1", "feasibility", "penalty-gate")
    counts = dict.fromkeys(kinds, 0)
    ok = True
    for _ in range(100):
        kind = kinds[int(rng.integers(len(kinds)))]
        d = json.loads(json.dumps(base))
        if kind == "H1":
            d["set"]["state_gain"] = -float(rng.uniform(1.0, 3.0))
            d["set"]["state_direction"] = [1.0]
        elif kind == "feasibility":
            d["problem"]["x0"] = [-float(rng.uniform(0.1, 2.0))]
        else:
            d["assumed"] = {"alpha": 1.0, "rho": float(rng.uniform(0.001, 0.04))}
        try:
            sw.parse_scenario(json.dumps(d))
            ok = False
        except sw.ValidationError as err:
            ok &= err.hypothesis == kind
            counts[kind] += 1
        except sw.SweepSolveError:
            ok = False
    elapsed = time.perf_counter() - start
    _report(10, ok and all(v > 0 for v in counts.values()) and elapsed < 5.0,
            f"100 mutations rejected by name: {counts}, {elapsed:.1f}s")

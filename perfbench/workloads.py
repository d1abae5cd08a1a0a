"""Workload definitions: scenario generation from a seed, operations, output checks.

A workload is a fixed list of CLI operations (``sweepsolve.cli.main`` argv
lists).  One pass runs each operation once, in order.  Generated scenarios
depend only on the seed and are written as JSON files that the program parses
like any user file; the benchmark never hands it Python objects.

Output checks run outside the timed region.  Each returns a list of problems;
an empty list means the artifacts are correct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import sweepsolve

# set_estimate is runnable but not declared in BENCHMARK.json: its times
# followed the shared host's speed too closely to gate on (README.md,
# "Steadiness").  Traced runs of the declared workloads still make one pass of
# it for the estimate-set layer metrics.
WORKLOADS = ("corpus_sweep", "small_lambda", "set_estimate")

CORPUS = (
    "corner_push_dykstra", "degenerate_decay", "drift_halfspace_1d",
    "drift_halfspace_fast_operator", "moving_ball_escape", "moving_ball_fast_operator",
    "rotating_halfplane", "spd_channel_push", "static_box_interior",
    "tracking_halfline_state_feedback", "wedge_rising",
)
TINY_CORPUS = ("degenerate_decay", "rotating_halfplane", "static_box_interior")

# One tolerance for both trajectory oracles, as a share of the tube width
# w = speed*lambda/gamma^2 (the exact lag of the penalized motion behind the
# lambda -> 0 motion on these scenarios):
#   drift half-line: |x_lambda - closed form at the same lambda| <= ORACLE_RTOL*w
#   moving ball:     |x_lambda - catching-up oracle|             <= (1 + ORACLE_RTOL)*w
ORACLE_RTOL = 0.01
CATCHING_UP_STEPS = 2500
WEDGE_ALPHA = 1.0 / math.sqrt(2.0)
WEDGE_ALPHA_SLACK = 0.02   # the sampled infimum is an upper estimate

# Computed values are compared with REFERENCE, the program's output at the
# commit that added this benchmark (sweep and estimate-set with --seed 1; only
# alpha_estimate depends on the seed, and it is range-checked instead).
# Geometric values (Dykstra, kappa) must agree to GEOM_RTOL.  Values read off
# a trajectory may move with the stepper's nodes, so they get TRAJ_RTOL.
# Verdicts and statuses must agree exactly.
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json")
                       .read_text(encoding="utf-8"))
GEOM_RTOL = 1e-6
TRAJ_RTOL = 1e-3
ABS_TOL = 1e-12
_TRAJ_FIELDS = ("phi_max", "worst_ratio", "sup_diff")
# degenerate_decay starts infeasible, so its bound, ratio and verdicts are the
# ones ROADMAP item 5 will redefine; only its measured values are pinned
_UNPINNED = {"degenerate_decay": ("phi_bound", "worst_ratio", "bound_satisfied",
                                  "lipschitz_ok")}


@dataclass
class Op:
    key: str                           # stable within a workload, e.g. "sweep/wedge_rising"
    argv: list
    out_dir: Path
    check: Callable[["Op"], list] | None = None   # runs when the exit code is 0 or 2


@dataclass
class Workload:
    name: str
    seed: int
    scenario_files: list               # parsed during set-up
    ops: list = field(default_factory=list)
    params: dict = field(default_factory=dict)      # generated values the checks need
    scenarios: dict = field(default_factory=dict)   # path -> parsed Scenario
    oracles: dict = field(default_factory=dict)     # path -> catching-up Trajectory


def build(name: str, seed: int, root: Path, work: Path, tiny: bool) -> Workload:
    """Generate the workload's inputs under ``work`` and list its operations."""
    if name == "corpus_sweep":
        return _corpus_sweep(seed, root, work, tiny)
    if name == "small_lambda":
        return _small_lambda(seed, work, tiny)
    if name == "set_estimate":
        return _set_estimate(seed, root, work, tiny)
    raise ValueError(f"unknown workload {name!r}")


def parse_all(wl: Workload) -> None:
    wl.scenarios = {str(p): sweepsolve.load_scenario(p) for p in wl.scenario_files}


def _write_scenario(work: Path, name: str, doc: dict) -> Path:
    path = work / "scenarios" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def _load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# corpus_sweep: `sweep` on every shipped scenario
# ---------------------------------------------------------------------------

def _corpus_sweep(seed, root, work, tiny):
    names = TINY_CORPUS if tiny else CORPUS
    files = [root / "scenarios" / f"{n}.json" for n in names]
    wl = Workload("corpus_sweep", seed, files)
    for n, path in zip(names, files):
        out = work / "out" / "sweep" / n
        wl.ops.append(Op(f"sweep/{n}", ["sweep", "--scenario", str(path), "--out", str(out),
                                         "--seed", str(seed)], out, _check_sweep))
    return wl


def sweep_values(stem, report):
    """The pinned values of a sweep report, flattened to {field: value}."""
    out = {"kappa_tilde": report["kappa_tilde"]}
    for e in report["per_lambda"]:
        for k in ("status", "phi_max", "phi_bound", "worst_ratio", "bound_satisfied",
                  "lipschitz_ok"):
            out[f"lambda={e['lambda']!r}.{k}"] = e[k]
    for row in report["convergence_table"]:
        out[f"lambda={row['lambda_hi']!r}/{row['lambda_lo']!r}.sup_diff"] = row["sup_diff"]
    skip = _UNPINNED.get(stem, ())
    return {k: v for k, v in out.items() if k.rsplit(".", 1)[-1] not in skip}


def set_estimate_values(est):
    out = {f"kappa_estimates[{r}]": v for r, v in est["kappa_estimates"].items()}
    out["L_hat"] = est["L_hat"]
    for h in est["hausdorff_samples"]:
        out[f"hausdorff[r={h['r']!r}]"] = h["value"]
    return out


def _compare(label, got, ref):
    """Problems where ``got`` differs from the reference values ``ref``."""
    problems = []
    for k, want in ref.items():
        have = got.get(k)
        if isinstance(want, float) and isinstance(have, float):
            rtol = TRAJ_RTOL if k.endswith(_TRAJ_FIELDS) else GEOM_RTOL
            if math.isclose(have, want, rel_tol=rtol, abs_tol=ABS_TOL):
                continue
        elif have == want:
            continue
        problems.append(f"{label} {k} = {have!r}, reference {want!r}")
    extra = sorted(set(got) - set(ref))
    if extra:
        problems.append(f"{label}: values with no reference: {extra}")
    return problems


def _alpha_problems(stem, alpha):
    """alpha is 1 on a convex set and 1/sqrt(2) on the wedge, from above."""
    if stem == "wedge_rising":
        if not WEDGE_ALPHA - 1e-9 <= alpha <= WEDGE_ALPHA + WEDGE_ALPHA_SLACK:
            return [f"wedge: alpha_estimate {alpha!r} outside "
                    f"[1/sqrt(2), 1/sqrt(2) + {WEDGE_ALPHA_SLACK}]"]
    elif stem in CORPUS:
        if not abs(alpha - 1.0) <= 1e-9:
            return [f"convex set: alpha_estimate {alpha!r} != 1"]
    elif not 0.0 < alpha <= 1.0 + 1e-12:
        return [f"alpha_estimate {alpha!r} outside (0, 1]"]
    return []


def _check_sweep(op):
    stem = Path(op.argv[2]).stem
    scenario = _load_json(op.argv[2])
    report = _load_json(op.out_dir / "report.json")
    problems = []
    lams = [e["lambda"] for e in report["per_lambda"]]
    if lams != scenario["lambdas"]:
        problems.append(f"report lambdas {lams} != scenario lambdas {scenario['lambdas']}")
    for entry in report["per_lambda"]:
        if entry["status"] == "ok":
            tag = format(entry["lambda"], "g").replace("-", "m")
            if not (op.out_dir / f"trajectory_lam{tag}.csv").is_file():
                problems.append(f"missing CSV for lambda {entry['lambda']}")
    problems += _alpha_problems(stem, report["alpha_estimate"])
    problems += _compare(stem, sweep_values(stem, report), REFERENCE["sweep"][stem])
    return problems


# ---------------------------------------------------------------------------
# small_lambda: `solve` then `diagnose` down a lambda ladder
# ---------------------------------------------------------------------------

LADDER = (5e-2, 5e-3, 5e-4)
TINY_LADDER = (5e-2, 1e-2)
BALL_GAMMA = 2.0


def _small_lambda(seed, work, tiny):
    rng = random.Random(seed)
    ladder = TINY_LADDER if tiny else LADDER
    v = rng.uniform(0.5, 2.0)
    drift = {
        "problem": {"dimension": 1, "horizon": 0.2 if tiny else 1.0, "x0": [0.0]},
        "operator": {"kind": "identity"},
        "set": {"kind": "half_space", "normal": [-1.0], "drift": -v},
        "lambdas": list(ladder),
        "integrator": {"method": "rk4"},
        "assumed": {"alpha": 1.0, "rho": "inf"},
    }
    # ball of radius r moving at speed s along u; A(x0) sits on the trailing
    # boundary, so the set pushes the state from t = 0 on
    theta = rng.uniform(0.0, 2.0 * math.pi)
    s = rng.uniform(0.5, 1.5)
    r = rng.uniform(0.5, 1.0)
    u = (math.cos(theta), math.sin(theta))
    c0 = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    z0 = (c0[0] - r * u[0], c0[1] - r * u[1])
    ball = {
        "problem": {"dimension": 2, "horizon": 0.05 if tiny else 0.25,
                    "x0": [z0[0] / BALL_GAMMA, z0[1] / BALL_GAMMA]},
        "operator": {"kind": "scaled_identity", "gamma": BALL_GAMMA},
        "set": {"kind": "ball", "center": list(c0), "radius": r,
                "velocity": [s * u[0], s * u[1]]},
        "lambdas": list(ladder),
        "integrator": {"method": "rk4"},
        "assumed": {"alpha": 1.0, "rho": "inf"},
    }
    files = [_write_scenario(work, "drift_halfline", drift),
             _write_scenario(work, "moving_ball", ball)]
    wl = Workload("small_lambda", seed, files)
    checks = {"drift_halfline": _check_drift, "moving_ball": _check_ball}
    for path in files:
        stem = path.stem
        for lam in ladder:
            tag = format(lam, "g")
            out = work / "out" / "solve" / f"{stem}_{tag}"
            solve = Op(f"solve/{stem}/{tag}",
                       ["solve", "--scenario", str(path), "--out", str(out),
                        "--seed", str(seed), "--lam", repr(lam)], out, None)
            solve.check = _bind(checks[stem], wl, lam)
            csv = out / f"trajectory_lam{tag.replace('-', 'm')}.csv"
            dout = work / "out" / "diagnose" / f"{stem}_{tag}"
            diag = Op(f"diagnose/{stem}/{tag}",
                      ["diagnose", "--scenario", str(path), "--out", str(dout),
                       "--seed", str(seed), "--traj", str(csv)], dout, None)
            diag.check = _bind(_check_diagnose, out)
            wl.ops += [solve, diag]
    wl.params.update(drift_speed=v, ball_speed=s)
    return wl


def _bind(fn, *extra):
    return lambda op: fn(op, *extra)


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1:1 + (data.shape[1] - 2) // 2]


def _solve_csv(op):
    tag = format(float(op.argv[-1]), "g").replace("-", "m")
    return op.out_dir / f"trajectory_lam{tag}.csv"


def _check_drift(op, wl, lam):
    t, x = _read_csv(_solve_csv(op))
    v = wl.params["drift_speed"]
    exact = v * (t - lam * (1.0 - np.exp(-t / lam)))
    err = float(np.max(np.abs(x[:, 0] - exact)))
    width = v * lam
    if not err <= ORACLE_RTOL * width:
        return [f"drift lambda={lam:g}: |x - closed form| = {err:.3g} > "
                f"{ORACLE_RTOL:g} * {width:.3g}"]
    return []


def _check_ball(op, wl, lam):
    t, x = _read_csv(_solve_csv(op))
    path = op.argv[2]
    if path not in wl.oracles:
        scenario = wl.scenarios[path]
        wl.oracles[path] = sweepsolve.catching_up(scenario, scenario.T / CATCHING_UP_STEPS)
    ref = wl.oracles[path]
    ref_x = np.column_stack([np.interp(t, ref.times, ref.states[:, j])
                             for j in range(ref.states.shape[1])])
    gap = float(np.max(np.linalg.norm(x - ref_x, axis=1)))
    width = wl.params["ball_speed"] * lam / BALL_GAMMA ** 2
    if not gap <= (1.0 + ORACLE_RTOL) * width:
        return [f"ball lambda={lam:g}: |x - catching-up| = {gap:.3g} > "
                f"(1 + {ORACLE_RTOL:g}) * {width:.3g}"]
    return []


_DIAG_FIELDS = ("phi_max", "phi_bound", "worst_ratio", "lipschitz_estimate",
                "lipschitz_bound", "bound_satisfied", "lipschitz_ok", "kappa_tilde")


def _check_diagnose(op, solve_out):
    """Re-diagnosing the solve CSV must reproduce the solve summary exactly."""
    summary = _load_json(solve_out / "summary.json")
    diag = _load_json(op.out_dir / "diagnose.json")
    return [f"diagnose {k} = {diag.get(k)!r} != solve {summary.get(k)!r}"
            for k in _DIAG_FIELDS if diag.get(k) != summary.get(k)]


# ---------------------------------------------------------------------------
# set_estimate: `estimate-set` on the Dykstra corner, the wedge and a union
# ---------------------------------------------------------------------------

# (scenario stem, --samples, --alpha-samples); the Dykstra-backed sets are
# sized down so one pass stays a few seconds
SET_SIZES = {"corner_push_dykstra": (1024, 2000), "wedge_rising": (4096, 10000),
             "ball_or_corner": (1024, 2000)}
TINY_SET_SIZES = {"corner_push_dykstra": (64, 100), "wedge_rising": (64, 2000),
                  "ball_or_corner": (64, 100)}


def _set_estimate(seed, root, work, tiny):
    rng = random.Random(seed)
    # a unit ball and a right-angled corner, rotated together about the origin
    # so the sampled geometry (and hence the cost) does not depend on the seed
    theta = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)

    def rot(x, y):
        return [c * x - s * y, s * x + c * y]

    speed = rng.uniform(0.8, 1.2)
    union = {
        "problem": {"dimension": 2, "horizon": 1.0, "x0": rot(-1.5, 0.0)},
        "operator": {"kind": "identity"},
        "set": {"kind": "union", "members": [
            {"kind": "ball", "center": rot(-1.5, 0.0), "radius": 1.0,
             "velocity": rot(0.0, speed)},
            {"kind": "half_space_intersection", "members": [
                {"normal": rot(-1.0, 0.0), "beta0": -1.0, "drift": speed},
                {"normal": rot(0.0, -1.0), "beta0": 0.0, "drift": -speed},
            ]},
        ]},
        "lambdas": [0.1],
        "integrator": {"method": "rk4"},
        "assumed": {"alpha": 0.5, "rho": "inf"},
    }
    files = [root / "scenarios" / "corner_push_dykstra.json",
             root / "scenarios" / "wedge_rising.json",
             _write_scenario(work, "ball_or_corner", union)]
    wl = Workload("set_estimate", seed, files)
    sizes = TINY_SET_SIZES if tiny else SET_SIZES
    for path in files:
        samples, alpha_samples = sizes[path.stem]
        out = work / "out" / "estimate_set" / path.stem
        wl.ops.append(Op(f"estimate-set/{path.stem}",
                         ["estimate-set", "--scenario", str(path), "--out", str(out),
                          "--seed", str(seed), "--samples", str(samples),
                          "--alpha-samples", str(alpha_samples)],
                         out, _check_set_estimate))
    return wl


def _check_set_estimate(op):
    """Corpus sets against the reference; the seeded union by range only."""
    est = _load_json(op.out_dir / "set_estimates.json")
    stem = Path(op.argv[2]).stem
    problems = _alpha_problems(stem, est["alpha_estimate"])
    for k, val in est["kappa_estimates"].items():
        if not (isinstance(val, float) and math.isfinite(val) and val >= 0.0):
            problems.append(f"kappa_estimates[{k}] = {val!r}")
    if stem in CORPUS:
        label = f"{stem}/{est['sampler']['count']}"
        problems += _compare(label, set_estimate_values(est),
                             REFERENCE["set_estimate"][label])
    return problems

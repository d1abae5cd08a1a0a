"""Quantitative checks on computed trajectories and sets.

Verifies the tracking tube bound phi <= kappa_tilde*lambda/(m*alpha^2 - L),
the trajectory Lipschitz constant kappa_tilde/(m*alpha^2 - L), estimates the
truncated-Hausdorff moduli (kappa_r, L) and the far parameter alpha, and runs
lambda sweeps with empirical Cauchy diagnostics.

All sup/inf estimators are sample based: suprema are reported as lower
estimates, the alpha infimum as an upper estimate, with the sampler recorded
alongside.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .dynamics import Scenario, Trajectory, integrate
from .errors import (
    DimensionMismatch,
    GridMismatch,
    SweepSolveError,
    TubeSamplingFailed,
    ValidationError,
)
from .hulls import _segment_min_norm, min_norm_point
from .set_zoo import as_vector, instantiate, row_norms

PHI_BOUND_TOL = 0.02       # discretization slack accepted by check_phi_bound
ALPHA_TIE_SLACK = 0.02     # relative distance slack admitting rival projections
DEFAULT_SAMPLES = 4096


@dataclass(frozen=True)
class FarParameters:
    """Far parameter alpha in (0, 1] and tube radius rho (may be inf)."""

    alpha: float = 1.0
    rho: float = math.inf

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho!r}")

    def margin(self, m: float, L: float) -> float:
        return m * self.alpha ** 2 - L


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "grid"       # grid (deterministic low-discrepancy) | monte_carlo
    count: int = DEFAULT_SAMPLES
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("grid", "monte_carlo"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("sampler count must be >= 1")


def ball_points(n: int, r: float, sampler: SamplerConfig) -> np.ndarray:
    """Points covering the radius-r ball, deterministic for the grid sampler."""
    if sampler.kind == "grid":
        u = qmc.Halton(d=n + 1, scramble=False).random(sampler.count + 1)[1:]
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        g = ndtri(u[:, :n])
    else:
        rng = np.random.default_rng(sampler.seed)
        g = rng.standard_normal((sampler.count, n))
        u = np.column_stack([np.zeros((sampler.count, n)), rng.uniform(size=sampler.count)])
    nrm = np.linalg.norm(g, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    radii = r * u[:, n] ** (1.0 / n)
    return radii[:, None] * (g / nrm)


# ---------------------------------------------------------------------------
# set moduli
# ---------------------------------------------------------------------------

def truncated_hausdorff(inst_a, inst_b, r: float, sampler: SamplerConfig | None = None) -> float:
    """Lower estimate of sup over the r-ball of |d(z, A) - d(z, B)|.

    Both instances are evaluated on the same sample set, so the result is
    symmetric in its arguments.
    """
    if inst_a.n != inst_b.n:
        raise DimensionMismatch(f"instances have dimensions {inst_a.n} and {inst_b.n}")
    if not r > 0:
        raise ValueError("r must be positive")
    sampler = sampler or SamplerConfig()
    Z = ball_points(inst_a.n, r, sampler)
    gaps = np.abs(inst_a.distance_many(Z) - inst_b.distance_many(Z))
    return float(np.max(gaps))


def estimate_kappa(spec, r: float, t_pairs, x_pairs, sampler: SamplerConfig | None = None,
                   x_ref=None, t_ref: float = 0.0):
    """Sampled envelope fit of the moduli in the bound kappa_r*|t-s| + L*|x-y|.

    kappa_r_hat is the largest time quotient at frozen state x_ref; L_hat the
    largest state quotient at frozen time t_ref.  Coincident pairs are
    skipped.  Both values are sample-based lower bounds of the true moduli.
    """
    sampler = sampler or SamplerConfig()
    x_ref = np.zeros(spec.n) if x_ref is None else as_vector(x_ref, spec.n, "x_ref")

    kappa_hat = 0.0
    for s, t in t_pairs:
        if abs(t - s) <= 1e-12:
            continue  # degenerate pair
        inst_s = instantiate(spec, s, x_ref)
        inst_t = instantiate(spec, t, x_ref)
        kappa_hat = max(kappa_hat, truncated_hausdorff(inst_s, inst_t, r, sampler) / abs(t - s))

    L_hat = 0.0
    for x, y in x_pairs:
        x = as_vector(x, spec.n, "x")
        y = as_vector(y, spec.n, "y")
        gap = float(np.linalg.norm(x - y))
        if gap <= 1e-12:
            continue
        inst_x = instantiate(spec, t_ref, x)
        inst_y = instantiate(spec, t_ref, y)
        L_hat = max(L_hat, truncated_hausdorff(inst_x, inst_y, r, sampler) / gap)

    return kappa_hat, L_hat


def estimate_alpha(inst, rho: float, sample_count: int, seed: int,
                   tie_slack: float = ALPHA_TIE_SLACK, oversample: int = 100) -> float:
    """Sampled infimum of the distance from the origin to the hull of
    normalized projection gradients over the tube {0 < d < rho}.

    For each tube point y the vectors (y - p_i)/d(y) are collected over every
    projection whose distance is within a relative ``tie_slack`` of the best
    (the multi-valued branch has zero measure, so an exact tie test would
    never fire under random sampling).  With <= 2 candidates the hull distance
    is the closed-form point-to-segment distance, computed for all samples at
    once.  The estimate decreases as sampling grows; it upper-bounds the true
    infimum.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if not rho > 0:
        raise ValueError("rho must be positive")
    rng = np.random.default_rng(seed)
    center = inst.anchor()
    spread = 4.0 * rho

    # one candidate query per drawn batch feeds both the tube filter and alpha
    Ys, Ps = [], []
    found = drawn = 0
    budget = oversample * sample_count
    while found < sample_count and drawn < budget:
        batch = min(4 * sample_count, budget - drawn)
        drawn += batch
        g = rng.standard_normal((batch, inst.n))
        nrm = np.linalg.norm(g, axis=1, keepdims=True)
        nrm[nrm == 0.0] = 1.0
        radii = spread * rng.uniform(size=batch) ** (1.0 / inst.n)
        Y = center + radii[:, None] * (g / nrm)
        P, D = inst.candidates(Y)
        d = D.min(0)
        inside = (d > 1e-12) & (d < rho)
        Ys.append(Y[inside])
        Ps.append(P[:, inside])
        found += int(np.count_nonzero(inside))
    if not found:
        raise TubeSamplingFailed(
            f"no sample landed in the tube 0 < d < {rho:g} after {drawn} draws")
    Y = np.concatenate(Ys)[:sample_count]
    P = np.concatenate(Ps, axis=1)[:, :sample_count]

    # distances measured from the candidates themselves, so the nearest
    # gradient has unit norm even where a closed-form distance cancels (d << |y|)
    R = Y - P
    D = row_norms(R)
    d = D.min(0)
    tied = D <= d * (1.0 + tie_slack)
    n_tied = tied.sum(0)
    # tied gradients first, each row keeping its candidate order
    order = np.argsort(~tied, axis=0, kind="stable")
    G = np.take_along_axis(R / d[:, None], order[:, :, None], axis=0)
    vals = row_norms(G[0])
    two = n_tied == 2
    if two.any():
        vals[two] = row_norms(_segment_min_norm(G[0, two], G[1, two]))
    for i in np.flatnonzero(n_tied > 2):
        vals[i] = min_norm_point(G[:n_tied[i], i])[1]
    return min(1.0, float(vals.min()))


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

def check_phi_bound(traj: Trajectory, scenario: Scenario, kappa_tilde: float,
                    params: FarParameters, tol_disc: float = PHI_BOUND_TOL):
    """Compare max phi against kappa_tilde*lambda/(m*alpha^2 - L).

    Returns (ok, worst_ratio); a vanishing bound with vanishing phi counts as
    a clean pass with ratio 0.
    """
    margin = params.margin(scenario.operator.m, scenario.state_lipschitz)
    if margin <= 0:
        raise ValidationError("H2", f"stability margin m*alpha^2 - L = {margin:g} <= 0")
    bound = kappa_tilde * traj.lam / margin
    phi_max = float(np.max(traj.phis))
    if bound <= 0.0:
        worst = 0.0 if phi_max <= 1e-15 else math.inf
    else:
        worst = phi_max / bound
    return worst <= 1.0 + tol_disc, worst


def lipschitz_estimate(traj: Trajectory) -> float:
    """Largest per-step mean speed |x_{i+1} - x_i| / (t_{i+1} - t_i)."""
    if len(traj) < 2:
        raise ValueError("need at least two grid points")
    dt = np.diff(traj.times)
    dx = np.linalg.norm(np.diff(traj.states, axis=0), axis=1)
    return float(np.max(dx / dt))


def resample(traj: Trajectory, grid) -> np.ndarray:
    """Linear-in-time resampling of the states onto a common grid."""
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size, traj.states.shape[1]))
    for j in range(traj.states.shape[1]):
        out[:, j] = np.interp(grid, traj.times, traj.states[:, j])
    return out


def sup_diff(traj_a: Trajectory, traj_b: Trajectory, common_grid=1000) -> float:
    """Max state distance after resampling both trajectories on a common grid."""
    if abs(traj_a.horizon - traj_b.horizon) > 1e-12 or abs(traj_a.times[0] - traj_b.times[0]) > 1e-12:
        raise GridMismatch(
            f"horizons differ: [{traj_a.times[0]:g}, {traj_a.horizon:g}] vs "
            f"[{traj_b.times[0]:g}, {traj_b.horizon:g}]")
    if np.isscalar(common_grid):
        grid = np.linspace(traj_a.times[0], traj_a.horizon, int(common_grid))
    else:
        grid = np.asarray(common_grid, dtype=float)
    gaps = np.linalg.norm(resample(traj_a, grid) - resample(traj_b, grid), axis=1)
    return float(np.max(gaps))


# ---------------------------------------------------------------------------
# kappa_tilde pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KappaTildeResult:
    value: float
    radius: float
    estimates: dict
    L_hat: float


def default_time_pairs(T: float):
    qs = (0.0, 0.25, 0.5, 0.75, 1.0)
    pairs = [(qs[i] * T, qs[i + 1] * T) for i in range(len(qs) - 1)]
    pairs.append((0.0, T))
    return pairs


def default_state_pairs(x0, scale: float = 0.5):
    x0 = np.asarray(x0, dtype=float)
    pairs = []
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = scale
        pairs.append((x0, x0 + e))
        pairs.append((x0, x0 - e))
    return pairs


def kappa_tilde(scenario: Scenario, params: FarParameters | None = None,
                sampler: SamplerConfig | None = None) -> KappaTildeResult:
    """Time modulus at the radius |A(x0)| + M*R the trajectory can reach.

    R is set to twice the expected travel T*kappa/(m*alpha^2 - L), resolved by
    one fixed-point pass from a first estimate at unit travel radius.
    Overestimating R only loosens the resulting modulus conservatively.  The
    default result is kept on the scenario: the parse-time gate and CLI share it.
    """
    memo = vars(scenario) if params is None and sampler is None else {}
    if "_kappa_tilde" in memo:
        return memo["_kappa_tilde"]
    params = params or FarParameters(scenario.alpha_assumed, scenario.rho_assumed)
    sampler = sampler or SamplerConfig()
    op = scenario.operator
    spec = scenario.moving_set
    margin = params.margin(op.m, spec.state_lipschitz)
    if margin <= 0:
        raise ValidationError("H2", f"stability margin m*alpha^2 - L = {margin:g} <= 0")

    a0 = float(np.linalg.norm(op.apply(scenario.x0)))
    t_pairs = default_time_pairs(scenario.T)
    x_pairs = default_state_pairs(scenario.x0) if spec.state_dependent else []

    r1 = a0 + op.M * 1.0
    k1, L1 = estimate_kappa(spec, r1, t_pairs, x_pairs, sampler, x_ref=scenario.x0)
    travel = 2.0 * scenario.T * k1 / margin
    r2 = max(a0 + op.M * travel, 1e-3)
    k2, L2 = estimate_kappa(spec, r2, t_pairs, x_pairs, sampler, x_ref=scenario.x0)
    memo["_kappa_tilde"] = KappaTildeResult(value=k2, radius=r2,
                                            estimates={r1: k1, r2: k2}, L_hat=max(L1, L2))
    return memo["_kappa_tilde"]


# ---------------------------------------------------------------------------
# lambda sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaDiagnostics:
    lam: float
    status: str
    phi_max: float = math.nan
    phi_bound: float = math.nan
    bound_satisfied: bool = False
    worst_ratio: float = math.nan
    lipschitz_estimate: float = math.nan
    lipschitz_bound: float = math.nan
    lipschitz_ok: bool = False
    n_accepted: int = 0
    n_rejected: int = 0


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Outcome of one lambda sweep.

    ``trajectories`` maps each lambda whose integration succeeded to the
    trajectory the sweep integrated and diagnosed, so callers write or
    inspect exactly the data the verdicts were computed from.
    """

    kappa_tilde: float
    alpha: float
    rho: float
    margin: float
    per_lambda: tuple
    convergence_table: tuple        # (lambda_hi, lambda_lo, sup_diff)
    sup_diff_monotone: bool
    kappa_estimates: dict
    alpha_estimate: float | None
    lipschitz_bound: float
    trajectories: dict

    # worst-case scalars across all lambdas
    @property
    def phi_max(self) -> float:
        vals = [d.phi_max for d in self.per_lambda if d.status == "ok"]
        return max(vals) if vals else math.nan

    @property
    def phi_bound(self) -> float:
        vals = [d.phi_bound for d in self.per_lambda if d.status == "ok"]
        return max(vals) if vals else math.nan

    @property
    def worst_ratio(self) -> float:
        vals = [d.worst_ratio for d in self.per_lambda if d.status == "ok"]
        return max(vals) if vals else math.nan

    @property
    def bound_satisfied(self) -> bool:
        oks = [d for d in self.per_lambda if d.status == "ok"]
        return bool(oks) and all(d.bound_satisfied for d in oks) \
            and all(d.status == "ok" for d in self.per_lambda)

    @property
    def lipschitz_estimate(self) -> float:
        vals = [d.lipschitz_estimate for d in self.per_lambda if d.status == "ok"]
        return max(vals) if vals else math.nan

    @property
    def all_ok(self) -> bool:
        return self.bound_satisfied and all(
            d.lipschitz_ok for d in self.per_lambda if d.status == "ok")


def diagnose_trajectory(traj: Trajectory, scenario: Scenario, kt: float,
                        params: FarParameters) -> LambdaDiagnostics:
    margin = params.margin(scenario.operator.m, scenario.state_lipschitz)
    ok, worst = check_phi_bound(traj, scenario, kt, params)
    lip = lipschitz_estimate(traj)
    lip_bound = kt / margin
    return LambdaDiagnostics(
        lam=traj.lam, status="ok",
        phi_max=float(np.max(traj.phis)),
        phi_bound=kt * traj.lam / margin,
        bound_satisfied=ok, worst_ratio=worst,
        lipschitz_estimate=lip, lipschitz_bound=lip_bound,
        lipschitz_ok=lip <= 1.05 * lip_bound + 1e-12,
        n_accepted=traj.stats.n_accepted, n_rejected=traj.stats.n_rejected)


def lambda_sweep(scenario: Scenario, kt: KappaTildeResult | None = None,
                 grid_points: int = 1000, seed: int = 0, jobs: int = 1,
                 alpha_samples: int = 2000) -> DiagnosticsReport:
    """Integrate every lambda, check the bounds, and tabulate Cauchy gaps.

    A failed lambda is recorded in its diagnostics entry, not fatal.  The
    convergence table lists sup-distance between consecutive successful
    lambdas on a common uniform grid.
    """
    params = FarParameters(scenario.alpha_assumed, scenario.rho_assumed)
    kt = kt or kappa_tilde(scenario)
    margin = params.margin(scenario.operator.m, scenario.state_lipschitz)

    def run(lam):
        try:
            return integrate(scenario, lam), None
        except (SweepSolveError, ValueError) as exc:
            return None, f"{type(exc).__name__}: {exc}"

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, scenario.lambdas))
    else:
        outcomes = [run(lam) for lam in scenario.lambdas]

    per_lambda = []
    trajs = {}
    for lam, (traj, err) in zip(scenario.lambdas, outcomes):
        if err is not None:
            per_lambda.append(LambdaDiagnostics(lam=lam, status=err))
            continue
        trajs[lam] = traj
        per_lambda.append(diagnose_trajectory(traj, scenario, kt.value, params))

    grid = np.linspace(0.0, scenario.T, grid_points)
    table = []
    ok_lams = [lam for lam in scenario.lambdas if lam in trajs]
    for hi, lo in zip(ok_lams, ok_lams[1:]):
        table.append((hi, lo, sup_diff(trajs[hi], trajs[lo], grid)))
    diffs = [row[2] for row in table]
    monotone = all(b < a for a, b in zip(diffs, diffs[1:]))

    alpha_est = None
    if alpha_samples > 0:
        rho_est = params.rho if math.isfinite(params.rho) else 1.0
        try:
            inst0 = instantiate(scenario.moving_set, 0.0, scenario.x0)
            alpha_est = estimate_alpha(inst0, rho_est, alpha_samples, seed)
        except SweepSolveError:
            alpha_est = None

    return DiagnosticsReport(
        kappa_tilde=kt.value, alpha=params.alpha, rho=params.rho, margin=margin,
        per_lambda=tuple(per_lambda), convergence_table=tuple(table),
        sup_diff_monotone=monotone, kappa_estimates=dict(kt.estimates),
        alpha_estimate=alpha_est, lipschitz_bound=kt.value / margin,
        trajectories=trajs)

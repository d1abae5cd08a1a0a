"""Quantitative checks on computed trajectories and sets.

Verifies the tracking tube bound phi <= kappa_tilde*lambda/(m*alpha^2 - L),
the trajectory Lipschitz constant kappa_tilde/(m*alpha^2 - L), estimates the
truncated-Hausdorff moduli (kappa_r, L) and the far parameter alpha, and runs
lambda sweeps with empirical Cauchy diagnostics.

Every bound divides by ``Scenario.margin`` = m*alpha^2 - L, which the
scenario computes and checks positive (H2) when it is built.

Suprema are sampled lower estimates, reported with their sampler.  Alpha is
exactly 1 on a convex instance, and on a union a sampled infimum, an upper
estimate.  Ball samples take their Gaussian directions from a port of Cephes'
``ndtri``, bit for bit SciPy's while ``math.log`` is the libm log SciPy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import Scenario, Trajectory, integrate
from .errors import (
    DimensionMismatch,
    GridMismatch,
    InvalidVector,
    SweepSolveError,
    TubeSamplingFailed,
)
from .hulls import _segment_min_norm, min_norm_point
from .set_zoo import _dot, _fdot, _readonly, as_vector, instantiate, row_norms

PHI_BOUND_TOL = 0.02       # discretization slack accepted by check_phi_bound
ALPHA_TIE_SLACK = 0.02     # relative distance slack admitting rival projections
DEFAULT_SAMPLES = 4096
SWEEP_ALPHA_SAMPLES = 2000  # tube samples behind a lambda sweep's alpha estimate


@dataclass(frozen=True)
class SamplerConfig:
    count: int = DEFAULT_SAMPLES    # points of the deterministic Halton grid of ball_points

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sampler count must be >= 1")


def halton(d: int, count: int) -> np.ndarray:
    """The first ``count`` points of the unscrambled Halton sequence in [0, 1)^d:
    radical inverses of 0, 1, ... in the first d primes, summed lowest digit first
    with place values divided down, bit for bit ``qmc.Halton(d, scramble=False)``."""
    primes = [2]
    while len(primes) < d:      # Bertrand: a prime lies in (p, 2p]
        primes.append(next(q for q in range(primes[-1] + 1, 2 * primes[-1] + 1)
                           if all(q % p for p in primes)))
    # whole numbers below 2**52 as floats: floor(q / p) is exact, and faster than //
    quotient = np.tile(np.arange(count, dtype=float), (d, 1))
    bases = np.array(primes, dtype=float)[:, None]
    out = np.zeros((d, count))
    place = 1.0 / bases
    while quotient.any():
        higher = np.floor(quotient / bases)
        out += (quotient - higher * bases) * place
        place = place / bases
        quotient = higher
    return out.T


# Cephes ndtri: P0/Q0 on (y - 1/2)**2, P1/Q1 and P2/Q2 on 1/x, x = sqrt(-2 log y) < and >= 8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_log = np.vectorize(math.log, otypes=[float])   # libm's log, element by element


def _ratio(x, p, q):
    """x * polevl(x, p) / p1evl(x, q) in Horner order, q's leading 1 implicit."""
    num, den = p[0], x + q[0]
    for c in p[1:]:
        num = num * x + c
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def ndtri(y0) -> np.ndarray:
    """Standard normal quantiles of y0 in (0, 1), bit for bit ``scipy.special.ndtri``:
    Cephes' branches, one NumPy ufunc per +, *, / and sqrt, logs by ``math.log``."""
    y0 = np.asarray(y0, dtype=float)
    flip = y0 > 1.0 - 0.13533528323661269189     # exp(-2)
    y = np.where(flip, 1.0 - y0, y0)
    out = np.empty_like(y)
    mid = y > 0.13533528323661269189
    c = y[mid] - 0.5
    out[mid] = (c + c * _ratio(c * c, _P0, _Q0)) * 2.50662827463100050242   # sqrt(2 pi)
    x = np.sqrt(-2.0 * _log(y[~mid]))
    z = 1.0 / x
    x = x - _log(x) / x - np.where(x < 8.0, _ratio(z, _P1, _Q1), _ratio(z, _P2, _Q2))
    out[~mid] = np.where(flip[~mid], x, -x)
    return out


@lru_cache(maxsize=16)
def _unit_ball(n: int, count: int):
    """Radial roots (count,) and unit directions (count, n) of ``count`` Halton
    points in the unit n-ball, as read-only arrays built on first use.  The
    directions normalise Gaussian quantiles from ``ndtri`` above, whose logs go
    through ``math.log`` so that they match ``scipy.special.ndtri`` bit for bit."""
    u = np.clip(halton(n + 1, count + 1)[1:], 1e-12, 1.0 - 1e-12)
    g = ndtri(u[:, :n])
    nrm = np.linalg.norm(g, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    return _readonly(u[:, n] ** (1.0 / n)), _readonly(g / nrm)


def ball_points(n: int, r: float, sampler: SamplerConfig) -> np.ndarray:
    """Halton points covering the radius-r ball, deterministic in (n, r, count).

    The unit-ball sample is built once per (n, count) and kept, so every
    kappa_tilde pair scales the same cached sample by r, bit for bit the
    points an uncached build gives."""
    if not math.isfinite(r):
        raise InvalidVector(f"sample ball radius must be finite, got {r!r}")
    roots, dirs = _unit_ball(n, sampler.count)
    return (r * roots)[:, None] * dirs


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
                   x_ref=None):
    """Sampled envelope fit of the moduli in the bound kappa_r*|t-s| + L*|x-y|.

    kappa_r_hat is the largest time quotient at frozen state x_ref; L_hat the
    largest state quotient at frozen time 0.  Coincident pairs are
    skipped.  Both values are sample-based lower bounds of the true moduli.
    Each quotient's numerator is ``truncated_hausdorff`` of its two frozen
    sets, from distances computed once per (t, x) on the shared r-ball sample.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    sampler = sampler or SamplerConfig()
    x_ref = np.zeros(spec.n) if x_ref is None else as_vector(x_ref, spec.n, "x_ref")
    Z = ball_points(spec.n, r, sampler)
    table = {}

    def distances(t, x):
        key = np.append(t, x).tobytes()
        if key not in table:
            table[key] = instantiate(spec, t, x).distance_many(Z)
        return table[key]

    def hausdorff(a, b):    # truncated_hausdorff of the sets frozen at a and b
        return float(np.max(np.abs(distances(*a) - distances(*b))))

    kappa_hat = 0.0
    for s, t in t_pairs:
        if abs(t - s) <= 1e-12:
            continue  # degenerate pair
        kappa_hat = max(kappa_hat, hausdorff((s, x_ref), (t, x_ref)) / abs(t - s))

    L_hat = 0.0
    for x, y in x_pairs:
        x = as_vector(x, spec.n, "x")
        y = as_vector(y, spec.n, "y")
        gap = math.sqrt(_dot(x - y, x - y))
        if gap <= 1e-12:
            continue
        L_hat = max(L_hat, hausdorff((0.0, x), (0.0, y)) / gap)

    return kappa_hat, L_hat


def estimate_alpha(inst, rho: float, sample_count: int, seed: int) -> float:
    """Infimum of the distance from the origin to the hull of normalized
    projection gradients over the tube {0 < d < rho}: exactly 1, drawing
    nothing, on a convex instance, whose one gradient has unit norm.

    On a union it is sampled: for each tube point y the vectors (y - p_i)/d(y)
    are collected over every projection whose distance is within a relative
    ``ALPHA_TIE_SLACK`` of the best (the multi-valued branch has zero measure,
    so an exact tie test would never fire under random sampling).  With <= 2
    candidates the hull distance is the closed-form point-to-segment distance,
    computed for all samples at once.  The estimate decreases as sampling
    grows; it upper-bounds the true infimum.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if not rho > 0:
        raise ValueError("rho must be positive")
    if inst.convex:
        return 1.0
    rng = np.random.default_rng(seed)
    center = inst.anchor()
    spread = 4.0 * rho

    # each drawn batch is filtered by distance; only the rows in the tube ask for their candidates
    Ys, Ps = [], []
    found = drawn = 0
    budget = 100 * sample_count
    while found < sample_count and drawn < budget:
        batch = min(4 * sample_count, budget - drawn)
        drawn += batch
        g = rng.standard_normal((batch, inst.n))
        nrm = np.linalg.norm(g, axis=1, keepdims=True)
        nrm[nrm == 0.0] = 1.0
        radii = spread * rng.uniform(size=batch) ** (1.0 / inst.n)
        Y = center + radii[:, None] * (g / nrm)
        d = inst.distances(Y)
        inside = (d > 1e-12) & (d < rho)
        Ys.append(Y[inside])
        Ps.append(inst.candidates(Y[inside])[0])
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
    tied = D <= d * (1.0 + ALPHA_TIE_SLACK)
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

def check_phi_bound(traj: Trajectory, scenario: Scenario, kappa_tilde: float):
    """Compare max phi against kappa_tilde*lambda/(m*alpha^2 - L).

    Returns (ok, worst_ratio); a vanishing bound with vanishing phi counts as
    a clean pass with ratio 0.
    """
    bound = kappa_tilde * traj.lam / scenario.margin
    phi_max = float(np.max(traj.phis))
    if bound <= 0.0:
        worst = 0.0 if phi_max <= 1e-15 else math.inf
    else:
        worst = phi_max / bound
    return worst <= 1.0 + PHI_BOUND_TOL, worst


def _linalg_norms(G):
    """``np.linalg.norm`` of each row of G, a finite row whose square overflows scaled by its largest entry."""
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(G, axis=1)
    if np.isinf(nrm).any():
        big = np.isinf(nrm) & np.isfinite(G).all(1)
        scale = np.abs(G[big]).max(1, keepdims=True)
        nrm[big] = scale[:, 0] * np.linalg.norm(G[big] / scale, axis=1)
    return nrm


def lipschitz_estimate(traj: Trajectory) -> float:
    """Largest per-step mean speed |x_{i+1} - x_i| / (t_{i+1} - t_i)."""
    if len(traj) < 2:
        raise ValueError("need at least two grid points")
    dt = np.diff(traj.times)
    dx = _linalg_norms(np.diff(traj.states, axis=0))
    return float(np.max(dx / dt))


def resample(traj: Trajectory, grid) -> np.ndarray:
    """Linear-in-time resampling of the states onto a common grid."""
    return np.column_stack([np.interp(grid, traj.times, x) for x in traj.states.T])


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
    gaps = _linalg_norms(resample(traj_a, grid) - resample(traj_b, grid))
    return float(np.max(gaps))


# ---------------------------------------------------------------------------
# kappa_tilde pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KappaTildeResult:
    value: float
    estimates: dict     # radius -> time modulus there; value is the travel radius's


def default_time_pairs(T: float):
    qs = (0.0, 0.25, 0.5, 0.75, 1.0)
    return [(q * T, r * T) for q, r in zip(qs, qs[1:])] + [(0.0, T)]


def default_state_pairs(x0):
    """x0 paired with x0 + 0.5*e_i and with x0 - 0.5*e_i for each axis i."""
    x0 = np.asarray(x0, dtype=float)
    pairs = []
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = 0.5
        pairs.append((x0, x0 + e))
        pairs.append((x0, x0 - e))
    return pairs


def kappa_tilde(scenario: Scenario, sampler: SamplerConfig | None = None) -> KappaTildeResult:
    """Time modulus at the radius |A(x0)| + M*R the trajectory can reach.

    R is set to twice the expected travel T*kappa/(m*alpha^2 - L), resolved by
    one fixed-point pass from a first estimate at unit travel radius.
    Overestimating R only loosens the resulting modulus conservatively.  The
    default result is kept on the scenario: the parse-time gate and CLI share it.
    """
    memo = vars(scenario) if sampler is None else {}
    if "_kappa_tilde" in memo:
        return memo["_kappa_tilde"]
    sampler = sampler or SamplerConfig()
    op = scenario.operator
    spec = scenario.moving_set

    z0 = op.image(scenario.x0.tolist())
    a0 = math.sqrt(_fdot(z0, z0))
    t_pairs = default_time_pairs(scenario.T)

    r1 = a0 + op.M * 1.0
    k1, _ = estimate_kappa(spec, r1, t_pairs, [], sampler, x_ref=scenario.x0)
    travel = 2.0 * scenario.T * k1 / scenario.margin
    r2 = max(a0 + op.M * travel, 1e-3)
    k2, _ = estimate_kappa(spec, r2, t_pairs, [], sampler, x_ref=scenario.x0)
    memo["_kappa_tilde"] = KappaTildeResult(value=k2, estimates={r1: k1, r2: k2})
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

    def worst(self, key) -> float:
        """Largest per-lambda ``key`` over the lambdas that integrated; NaN if none did."""
        return max([getattr(d, key) for d in self.per_lambda if d.status == "ok"], default=math.nan)

    @property
    def bound_satisfied(self) -> bool:
        """Every lambda integrated and met the tube bound."""
        return bool(self.per_lambda) and all(d.status == "ok" and d.bound_satisfied
                                             for d in self.per_lambda)

    @property
    def all_ok(self) -> bool:
        return self.bound_satisfied and all(d.lipschitz_ok for d in self.per_lambda)


def diagnose_trajectory(traj: Trajectory, scenario: Scenario, kt: float) -> LambdaDiagnostics:
    ok, worst = check_phi_bound(traj, scenario, kt)
    lip = lipschitz_estimate(traj)
    lip_bound = kt / scenario.margin
    return LambdaDiagnostics(
        lam=traj.lam, status="ok",
        phi_max=float(np.max(traj.phis)),
        phi_bound=kt * traj.lam / scenario.margin,
        bound_satisfied=ok, worst_ratio=worst,
        lipschitz_estimate=lip, lipschitz_bound=lip_bound,
        lipschitz_ok=lip <= 1.05 * lip_bound + 1e-12,
        n_accepted=traj.stats.n_accepted, n_rejected=traj.stats.n_rejected)


def lambda_sweep(scenario: Scenario, kt: KappaTildeResult | None = None,
                 grid_points: int = 1000, seed: int = 0, jobs: int = 1) -> DiagnosticsReport:
    """Integrate every lambda, check the bounds, and tabulate Cauchy gaps.

    A failed lambda is recorded in its diagnostics entry, not fatal.  The
    convergence table lists sup-distance between consecutive successful
    lambdas on a common uniform grid.
    """
    kt = kt or kappa_tilde(scenario)

    def run(lam):
        try:
            return integrate(scenario, lam), None
        except (SweepSolveError, ValueError) as exc:
            return None, f"{type(exc).__name__}: {exc}"

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
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
        per_lambda.append(diagnose_trajectory(traj, scenario, kt.value))

    grid = np.linspace(0.0, scenario.T, grid_points)
    table = []
    ok_lams = [lam for lam in scenario.lambdas if lam in trajs]
    for hi, lo in zip(ok_lams, ok_lams[1:]):
        table.append((hi, lo, sup_diff(trajs[hi], trajs[lo], grid)))
    diffs = [row[2] for row in table]
    monotone = all(b < a for a, b in zip(diffs, diffs[1:]))

    rho_est = scenario.rho_assumed if math.isfinite(scenario.rho_assumed) else 1.0
    try:
        inst0 = instantiate(scenario.moving_set, 0.0, scenario.x0)
        alpha_est = estimate_alpha(inst0, rho_est, SWEEP_ALPHA_SAMPLES, seed)
    except SweepSolveError:
        alpha_est = None

    return DiagnosticsReport(
        kappa_tilde=kt.value, alpha=scenario.alpha_assumed, rho=scenario.rho_assumed,
        margin=scenario.margin, per_lambda=tuple(per_lambda), convergence_table=tuple(table),
        sup_diff_monotone=monotone, kappa_estimates=dict(kt.estimates),
        alpha_estimate=alpha_est, lipschitz_bound=kt.value / scenario.margin,
        trajectories=trajs)

"""Moving-set zoo: parametric families C(t, x), frozen instances, distances, projections.

Every set family is described by an immutable spec that can be frozen at a
given (t, x) into a :class:`SetInstance`.  Instances answer exact distance
queries and return the full (possibly multi-valued) nearest-point set.  The
nearest-point set of a point at distance 0 is that point alone, so one
projection query also answers membership.  Spec properties shared by several
families are defined once: in ``_GainDriven`` for the families moved by a
scalar state gain, and in ``_Composite`` for the families built from members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    DimensionMismatch,
    EmptyCandidates,
    EmptyInstance,
    InvalidVector,
    ProjectionNotConverged,
)

MEMBER_TOL = 1e-12          # membership slack for analytic variants
TIE_TOL = 1e-9              # absolute distance gap below which projections tie
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 100_000

_SQRT2 = float(np.sqrt(2.0))


def as_vector(x, n=None, name="vector"):
    """Validate and return a finite 1-d float array."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if n is not None and v.size != n:
        raise DimensionMismatch(f"{name} has dimension {v.size}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise InvalidVector(f"{name} contains non-finite entries")
    return v


def _unit(v, name, tol=1e-9):
    v = as_vector(v, name=name)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > tol:
        raise InvalidVector(f"{name} must have unit norm, got {nrm!r}")
    return v / nrm


def _frozen(v):
    v = np.array(v, dtype=float)
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# frozen instances
# ---------------------------------------------------------------------------

class SetInstance:
    """A moving set frozen at one (t, x): pure geometry, immutable, shareable."""

    member_tol = MEMBER_TOL

    def __init__(self, n):
        self.n = int(n)

    def distance(self, z) -> float:
        raise NotImplementedError

    def distance_many(self, Z) -> np.ndarray:
        """Distances for each row of Z; variants override with vectorized forms."""
        Z = np.asarray(Z, dtype=float)
        return np.array([self.distance(row) for row in Z])

    def projection_candidates(self, z):
        """All candidate nearest points as (point, distance) pairs.

        The list may contain strictly suboptimal candidates (e.g. the far ray
        of a wedge); :meth:`project` filters them.
        """
        raise NotImplementedError

    def member(self, z) -> bool:
        return self.distance(z) <= self.member_tol

    def anchor(self) -> np.ndarray:
        """A deterministic point of the set, used to center samplers."""
        raise NotImplementedError

    def project(self, z, tie_gap=TIE_TOL):
        """All nearest points of z, near-ties within ``tie_gap`` included."""
        z = as_vector(z, self.n, "z")
        cands = self.projection_candidates(z)
        dmin = min(d for _, d in cands)
        keep = [p for p, d in cands if d <= dmin + tie_gap]
        out = []
        for p in keep:
            if not any(np.linalg.norm(p - q) <= 1e-12 for q in out):
                out.append(p)
        out.sort(key=lambda p: tuple(p.tolist()))
        return out


class HalfSpaceInstance(SetInstance):
    """{z : <zeta, z> <= beta} with unit normal zeta."""

    def __init__(self, zeta, beta):
        super().__init__(len(zeta))
        self.zeta = _frozen(zeta)
        self.beta = float(beta)

    def violation(self, z) -> float:
        return float(self.zeta @ z) - self.beta

    def distance(self, z):
        z = as_vector(z, self.n, "z")
        return max(self.violation(z), 0.0)

    def distance_many(self, Z):
        Z = np.asarray(Z, dtype=float)
        return np.maximum(Z @ self.zeta - self.beta, 0.0)

    def project_point(self, z) -> np.ndarray:
        """Single nearest point (used directly by Dykstra's scheme)."""
        excess = max(self.violation(z), 0.0)
        return z - excess * self.zeta

    def projection_candidates(self, z):
        p = self.project_point(z)
        return [(p, float(np.linalg.norm(z - p)))]

    def anchor(self):
        return self.beta * self.zeta


class BallInstance(SetInstance):
    """Closed ball of fixed center and radius."""

    def __init__(self, center, radius):
        super().__init__(len(center))
        self.center = _frozen(center)
        self.radius = float(radius)

    def distance(self, z):
        z = as_vector(z, self.n, "z")
        return max(float(np.linalg.norm(z - self.center)) - self.radius, 0.0)

    def distance_many(self, Z):
        Z = np.asarray(Z, dtype=float)
        return np.maximum(np.linalg.norm(Z - self.center, axis=1) - self.radius, 0.0)

    def projection_candidates(self, z):
        gap = z - self.center
        nrm = float(np.linalg.norm(gap))
        if nrm <= self.radius:
            return [(z.copy(), 0.0)]
        p = self.center + (self.radius / nrm) * gap
        return [(p, nrm - self.radius)]

    def anchor(self):
        return self.center.copy()


class BoxInstance(SetInstance):
    """Axis-aligned box [lower, upper]."""

    def __init__(self, lower, upper):
        super().__init__(len(lower))
        self.lower = _frozen(lower)
        self.upper = _frozen(upper)

    def distance(self, z):
        z = as_vector(z, self.n, "z")
        p = np.clip(z, self.lower, self.upper)
        return float(np.linalg.norm(z - p))

    def distance_many(self, Z):
        Z = np.asarray(Z, dtype=float)
        P = np.clip(Z, self.lower, self.upper)
        return np.linalg.norm(Z - P, axis=1)

    def projection_candidates(self, z):
        p = np.clip(z, self.lower, self.upper)
        return [(p, float(np.linalg.norm(z - p)))]

    def anchor(self):
        return 0.5 * (self.lower + self.upper)


class WedgeInstance(SetInstance):
    """Translate of {(a, b) : b >= -|a|}; nonconvex, projections on two rays."""

    # boundary ray directions of the reference wedge, apex at the origin
    _RAYS = (np.array([1.0, -1.0]) / _SQRT2, np.array([-1.0, -1.0]) / _SQRT2)

    def __init__(self, apex):
        super().__init__(2)
        self.apex = _frozen(apex)

    def _local(self, z):
        return z - self.apex

    def distance(self, z):
        z = as_vector(z, self.n, "z")
        a, b = self._local(z)
        if b >= -abs(a):
            return 0.0
        return (-b - abs(a)) / _SQRT2

    def distance_many(self, Z):
        Z = np.asarray(Z, dtype=float)
        W = Z - self.apex
        out = (-W[:, 1] - np.abs(W[:, 0])) / _SQRT2
        return np.maximum(out, 0.0)

    def projection_candidates(self, z):
        w = self._local(z)
        if w[1] >= -abs(w[0]):
            return [(z.copy(), 0.0)]
        cands = []
        for ray in self._RAYS:
            s = max(float(w @ ray), 0.0)
            p = self.apex + s * ray
            cands.append((p, float(np.linalg.norm(z - p))))
        return cands

    def anchor(self):
        return self.apex.copy()


class HalfSpaceIntersectionInstance(SetInstance):
    """Intersection of half-spaces; projections via Dykstra's alternating corrections."""

    member_tol = 1e-10  # limited by the Dykstra tolerance

    def __init__(self, members, tol=DYKSTRA_TOL, max_iter=DYKSTRA_MAX_ITER):
        if not members:
            raise EmptyCandidates("intersection needs at least one half-space")
        super().__init__(members[0].n)
        self.members = tuple(members)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self._feasible_point = None

    def violation(self, z) -> float:
        return max(hs.violation(z) for hs in self.members)

    def member(self, z):
        z = as_vector(z, self.n, "z")
        return self.violation(z) <= self.member_tol

    def ensure_nonempty(self):
        """Find a feasible point or raise EmptyInstance; result is cached."""
        if self._feasible_point is not None:
            return self._feasible_point
        # cheap probe: cyclic projections from the origin settle quickly when
        # the intersection is comfortably nonempty
        x = np.zeros(self.n)
        for _ in range(200):
            for hs in self.members:
                x = hs.project_point(x)
            if self.violation(x) <= 1e-12:
                self._feasible_point = _frozen(x)
                return self._feasible_point
        A = np.array([hs.zeta for hs in self.members])
        b = np.array([hs.beta for hs in self.members])
        res = linprog(np.zeros(self.n), A_ub=A, b_ub=b,
                      bounds=[(None, None)] * self.n, method="highs")
        if res.status == 2:
            raise EmptyInstance("half-space intersection is empty")
        if not res.success:
            raise EmptyInstance(f"feasibility LP failed: {res.message}")
        self._feasible_point = _frozen(np.asarray(res.x, dtype=float))
        return self._feasible_point

    def distance(self, z):
        z = as_vector(z, self.n, "z")
        if self.violation(z) <= MEMBER_TOL:
            return 0.0
        p, _ = self._dykstra(z)
        return float(np.linalg.norm(z - p))

    def projection_candidates(self, z):
        if self.violation(z) <= MEMBER_TOL:
            return [(z.copy(), 0.0)]
        p, _ = self._dykstra(z)
        return [(p, float(np.linalg.norm(z - p)))]

    def _dykstra(self, z):
        try:
            return dykstra_project(self.members, z, self.tol, self.max_iter)
        except ProjectionNotConverged:
            self.ensure_nonempty()  # raises EmptyInstance when that is the cause
            raise

    def anchor(self):
        return np.asarray(self.ensure_nonempty(), dtype=float).copy()


class UnionInstance(SetInstance):
    """Union of convex instances; distance is the member minimum."""

    def __init__(self, members):
        if not members:
            raise EmptyCandidates("union needs at least one member")
        super().__init__(members[0].n)
        self.members = tuple(members)

    def distance(self, z):
        z = as_vector(z, self.n, "z")
        return min(m.distance(z) for m in self.members)

    def distance_many(self, Z):
        Z = np.asarray(Z, dtype=float)
        return np.min([m.distance_many(Z) for m in self.members], axis=0)

    def projection_candidates(self, z):
        cands = []
        for m in self.members:
            d = m.distance(z)
            if d == 0.0:
                return [(z.copy(), 0.0)]
            p = m.project(z)[0]
            cands.append((p, float(np.linalg.norm(z - p))))
        return cands

    def anchor(self):
        return self.members[0].anchor()


# ---------------------------------------------------------------------------
# moving-set specs
# ---------------------------------------------------------------------------

class _GainDriven:
    """Convex family whose state dependence is one scalar ``state_gain``."""

    convex = True

    @property
    def state_lipschitz(self) -> float:
        return abs(self.state_gain)

    @property
    def state_dependent(self) -> bool:
        return self.state_gain != 0.0


class _Composite:
    """Family built from a nonempty tuple of same-dimension ``members``."""

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise EmptyCandidates(f"{type(self).__name__} needs at least one member")
        dims = {m.n for m in members}
        if len(dims) != 1:
            raise DimensionMismatch(f"members have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "members", members)

    @property
    def n(self):
        return self.members[0].n

    @property
    def state_lipschitz(self) -> float:
        return max(m.state_lipschitz for m in self.members)

    @property
    def state_dependent(self) -> bool:
        return any(m.state_dependent for m in self.members)


@dataclass(frozen=True, eq=False)
class HalfSpaceSpec(_GainDriven):
    """C(t, x) = {z : <zeta(t), z> <= beta0 + drift*t + state_gain*<u, x>}.

    The normal path is either constant or rotates in the fixed 2-plane spanned
    by (normal, rotation_partner) at constant rate, which keeps |zeta(t)| = 1
    exactly.
    """

    normal: np.ndarray
    beta0: float = 0.0
    drift: float = 0.0
    state_gain: float = 0.0
    state_direction: np.ndarray | None = None
    rotation_rate: float = 0.0
    rotation_partner: np.ndarray | None = None

    def __post_init__(self):
        e1 = _unit(self.normal, "normal")
        object.__setattr__(self, "normal", _frozen(e1))
        if self.state_gain != 0.0:
            if self.state_direction is None:
                raise InvalidVector("state_direction required when state_gain != 0")
            u = _unit(self.state_direction, "state_direction")
            object.__setattr__(self, "state_direction", _frozen(u))
        elif self.state_direction is not None:
            u = _unit(self.state_direction, "state_direction")
            object.__setattr__(self, "state_direction", _frozen(u))
        if self.rotation_rate != 0.0:
            if self.rotation_partner is None:
                raise InvalidVector("rotation_partner required when rotation_rate != 0")
            e2 = _unit(self.rotation_partner, "rotation_partner")
            if abs(float(e1 @ e2)) > 1e-9:
                raise InvalidVector("rotation_partner must be orthogonal to normal")
            e2 = e2 - float(e1 @ e2) * e1
            e2 = e2 / float(np.linalg.norm(e2))
            object.__setattr__(self, "rotation_partner", _frozen(e2))

    @property
    def n(self):
        return self.normal.size

    def zeta(self, t):
        if self.rotation_rate == 0.0:
            return self.normal
        ang = self.rotation_rate * t
        return np.cos(ang) * self.normal + np.sin(ang) * self.rotation_partner

    def beta(self, t, x):
        b = self.beta0 + self.drift * t
        if self.state_gain != 0.0:
            b += self.state_gain * float(self.state_direction @ x)
        return b

    def freeze(self, t, x):
        return HalfSpaceInstance(self.zeta(t), self.beta(t, x))


@dataclass(frozen=True, eq=False)
class BallSpec(_GainDriven):
    """Ball with affinely moving center c(t, x) = center + velocity*t + state_gain*x."""

    center: np.ndarray
    radius: float
    velocity: np.ndarray | None = None
    state_gain: float = 0.0

    def __post_init__(self):
        c = as_vector(self.center, name="center")
        object.__setattr__(self, "center", _frozen(c))
        v = np.zeros_like(c) if self.velocity is None else as_vector(self.velocity, c.size, "velocity")
        object.__setattr__(self, "velocity", _frozen(v))
        if not self.radius > 0:
            raise InvalidVector("ball radius must be positive")

    @property
    def n(self):
        return self.center.size

    def freeze(self, t, x):
        c = self.center + t * self.velocity
        if self.state_gain != 0.0:
            c = c + self.state_gain * x
        return BallInstance(c, self.radius)


@dataclass(frozen=True, eq=False)
class BoxSpec:
    """Axis-aligned box with bounds affine in t."""

    lower: np.ndarray
    upper: np.ndarray
    lower_velocity: np.ndarray | None = None
    upper_velocity: np.ndarray | None = None

    def __post_init__(self):
        lo = as_vector(self.lower, name="lower")
        hi = as_vector(self.upper, lo.size, "upper")
        object.__setattr__(self, "lower", _frozen(lo))
        object.__setattr__(self, "upper", _frozen(hi))
        lv = np.zeros_like(lo) if self.lower_velocity is None else as_vector(self.lower_velocity, lo.size, "lower_velocity")
        uv = np.zeros_like(lo) if self.upper_velocity is None else as_vector(self.upper_velocity, lo.size, "upper_velocity")
        object.__setattr__(self, "lower_velocity", _frozen(lv))
        object.__setattr__(self, "upper_velocity", _frozen(uv))
        if np.any(lo > hi):
            raise EmptyInstance("box has crossed bounds at t = 0")

    @property
    def n(self):
        return self.lower.size

    convex = True
    state_lipschitz = 0.0
    state_dependent = False

    def freeze(self, t, x):
        lo = self.lower + t * self.lower_velocity
        hi = self.upper + t * self.upper_velocity
        if np.any(lo > hi):
            raise EmptyInstance(f"box has crossed bounds at t = {t!r}")
        return BoxInstance(lo, hi)


@dataclass(frozen=True, eq=False)
class WedgeSpec:
    """Translating wedge {(a, b) : b - apex_b >= -|a - apex_a|} in the plane."""

    apex: np.ndarray
    apex_velocity: np.ndarray | None = None

    def __post_init__(self):
        a = as_vector(self.apex, 2, "apex")
        object.__setattr__(self, "apex", _frozen(a))
        v = np.zeros(2) if self.apex_velocity is None else as_vector(self.apex_velocity, 2, "apex_velocity")
        object.__setattr__(self, "apex_velocity", _frozen(v))

    n = 2
    convex = False
    state_lipschitz = 0.0
    state_dependent = False

    def freeze(self, t, x):
        return WedgeInstance(self.apex + t * self.apex_velocity)


@dataclass(frozen=True, eq=False)
class HalfSpaceIntersectionSpec(_Composite):
    """Intersection of half-space families."""

    members: tuple

    convex = True

    def freeze(self, t, x):
        inst = HalfSpaceIntersectionInstance([m.freeze(t, x) for m in self.members])
        inst.ensure_nonempty()
        return inst


@dataclass(frozen=True, eq=False)
class UnionSpec(_Composite):
    """Union of convex families; flagged nonconvex."""

    members: tuple

    convex = False

    def __post_init__(self):
        super().__post_init__()
        if not all(m.convex for m in self.members):
            raise InvalidVector("union members must be convex variants")

    def freeze(self, t, x):
        frozen = []
        empties = 0
        for m in self.members:
            try:
                frozen.append(m.freeze(t, x))
            except EmptyInstance:
                empties += 1
        if not frozen:
            raise EmptyInstance(f"all {empties} union members are empty at t = {t!r}")
        return UnionInstance(frozen)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def instantiate(spec, t, x) -> SetInstance:
    """Freeze the moving set at (t, x); deterministic in its inputs."""
    if not np.isfinite(t):
        raise InvalidVector(f"time must be finite, got {t!r}")
    x = as_vector(x, spec.n, "x")
    return spec.freeze(float(t), x)


def select_projection(candidates) -> np.ndarray:
    """Deterministic tie-break: lexicographically smallest coordinate vector."""
    cands = list(candidates)
    if not cands:
        raise EmptyCandidates("projection candidate list is empty")
    arrs = [np.asarray(p, dtype=float) for p in cands]
    return min(arrs, key=lambda p: tuple(p.tolist()))


def dykstra_project(members, z, tol=DYKSTRA_TOL, max_iter=DYKSTRA_MAX_ITER):
    """Nearest point of z on an intersection of half-spaces.

    Returns (point, cycles).  Convergence is declared when a full cycle moves
    the iterate by at most tol/10 and all constraints are met within tol; the
    scheme raises ProjectionNotConverged past ``max_iter`` cycles.
    """
    members = list(members)
    if not members:
        raise EmptyCandidates("need at least one half-space")
    if tol <= 0:
        raise InvalidVector("tol must be positive")
    z = as_vector(z, members[0].n, "z")
    x = z.copy()
    increments = [np.zeros_like(z) for _ in members]
    for cycle in range(1, max_iter + 1):
        x_start = x.copy()
        for i, hs in enumerate(members):
            y = x + increments[i]
            p = hs.project_point(y)
            increments[i] = y - p
            x = p
        moved = float(np.linalg.norm(x - x_start))
        worst = max(max(hs.violation(x), 0.0) for hs in members)
        if moved <= 0.1 * tol and worst <= tol:
            return x, cycle
    raise ProjectionNotConverged(
        f"Dykstra exceeded {max_iter} cycles at tol {tol:g}")

"""Moving-set zoo: parametric families C(t, x), frozen instances, distances, projections.

Every set family is described by an immutable spec that can be frozen at a
given (t, x) into a :class:`SetInstance`.  Spec properties shared by several
families are defined once: in ``_GainDriven`` for the families moved by a
scalar state gain, and in ``_Composite`` for the families built from members.

Each instance kind answers every geometric query through one batched method,
``candidates(Z)``.  For a pre-validated finite (N, n) float array Z it returns
``(P, D)``: candidate nearest points P of shape (k, N, n) and their distances
D of shape (k, N), where k is fixed by the kind (1 for the convex kinds, 2
for the wedge, the member count for a union).  The nearest points of row i
are the P[j, i] whose D[j, i] is smallest; other candidates may be strictly
farther (the far ray of a wedge).  A member row comes back as itself, bit
for bit, at distance 0, so projecting a point of the set returns that point.
Row results do not depend on the other rows of the batch.  ``SetInstance``
derives ``distance_many``, ``distance``, ``member`` and ``project`` from
``candidates``, validating their inputs once at that public boundary.
``nearest_points`` selects among one row's candidates, for ``project`` and
for the integrator, which queries ``candidates`` on its pre-validated states.
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
from .hulls import dedupe

MEMBER_TOL = 1e-12          # membership slack for analytic variants
TIE_TOL = 1e-9              # absolute distance gap below which projections tie
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 100_000
RANK_TOL = 1e-6             # least singular value of independent normals (squared: eigvalsh of N N^T)

_SQRT2 = float(np.sqrt(2.0))


def as_vector(x, n=None, name="vector"):
    """Validate and return a finite 1-d float array."""
    v = np.array(x, dtype=float, copy=None, ndmin=1)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if n is not None and v.size != n:
        raise DimensionMismatch(f"{name} has dimension {v.size}, expected {n}")
    if not np.isfinite(v).all():
        raise InvalidVector(f"{name} contains non-finite entries")
    return v


def as_rows(Z, n, name="points"):
    """Validate and return a finite (N, n) float array."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != n:
        raise DimensionMismatch(f"{name} must have shape (N, {n}), got {Z.shape}")
    if not np.isfinite(Z).all():
        raise InvalidVector(f"{name} contains non-finite entries")
    return Z


def row_norms(G):
    """Euclidean norms along the last axis.

    Row by row this is the same arithmetic as ``np.linalg.norm`` of a single
    vector, so a batch of one and a row of a larger batch agree bit for bit.
    """
    return np.sqrt(np.vecdot(G, G))


def _unit(v, name, tol=1e-9):
    v = as_vector(v, name=name)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > tol:
        raise InvalidVector(f"{name} must have unit norm, got {nrm!r}")
    return v / nrm


def _frozen(v):
    """v as a read-only float64 array; copied unless it is one that owns its data."""
    if isinstance(v, np.ndarray) and v.dtype == float and v.base is None and not v.flags.writeable:
        return v
    return _readonly(np.array(v, dtype=float))


def _readonly(v):
    return v.setflags(write=False) or v


# ---------------------------------------------------------------------------
# frozen instances
# ---------------------------------------------------------------------------

class SetInstance:
    """A moving set frozen at one (t, x): pure geometry, immutable, shareable."""

    member_tol = MEMBER_TOL

    def __init__(self, n):
        self.n = int(n)

    def candidates(self, Z):
        """Candidate nearest points (k, N, n) and distances (k, N) of each row of Z.

        Z must already be a finite (N, n) float array; see the module docstring.
        """
        raise NotImplementedError

    def anchor(self) -> np.ndarray:
        """A deterministic point of the set, used to center samplers."""
        raise NotImplementedError

    def distance_many(self, Z) -> np.ndarray:
        """Distance of each row of the (N, n) array Z."""
        return self.candidates(as_rows(Z, self.n, "Z"))[1].min(0)

    def distance(self, z) -> float:
        return float(self.candidates(as_vector(z, self.n, "z")[None])[1].min())

    def member(self, z) -> bool:
        return self.distance(z) <= self.member_tol

    def project(self, z, tie_gap=TIE_TOL):
        """All nearest points of z, near-ties within ``tie_gap`` included (see nearest_points)."""
        return nearest_points(*self.candidates(as_vector(z, self.n, "z")[None]), tie_gap)


class HalfSpaceInstance(SetInstance):
    """{z : <zeta, z> <= beta} with unit normal zeta."""

    def __init__(self, zeta, beta):
        super().__init__(len(zeta))
        self.zeta = _frozen(zeta)
        self.beta = float(beta)

    def candidates(self, Z):
        v = (np.vecdot(Z, self.zeta) - self.beta)[:, None]
        return np.where(v > 0.0, Z - v * self.zeta, Z)[None], np.maximum(v, 0.0).T

    def anchor(self):
        return self.beta * self.zeta


class BallInstance(SetInstance):
    """Closed ball of fixed center and radius."""

    def __init__(self, center, radius):
        super().__init__(len(center))
        self.center = _frozen(center)
        self.radius = float(radius)

    def candidates(self, Z):
        gap = Z - self.center
        nrm = row_norms(gap)[:, None]
        radial = self.center + self.radius / np.maximum(nrm, self.radius) * gap
        return (np.where(nrm <= self.radius, Z, radial)[None],
                np.maximum(nrm - self.radius, 0.0).T)

    def anchor(self):
        return self.center.copy()


class BoxInstance(SetInstance):
    """Axis-aligned box [lower, upper]."""

    def __init__(self, lower, upper):
        super().__init__(len(lower))
        self.lower = _frozen(lower)
        self.upper = _frozen(upper)

    def candidates(self, Z):
        P = np.clip(Z, self.lower, self.upper)
        D = row_norms(Z - P)
        # clipping may turn -0.0 into +0.0, and a gap below 1e-154 squares to 0
        P = np.where((D == 0.0)[:, None], Z, P)
        return P[None], D[None]

    def anchor(self):
        return 0.5 * (self.lower + self.upper)


class WedgeInstance(SetInstance):
    """Translate of {(a, b) : b >= -|a|}; nonconvex, projections on two rays."""

    # boundary ray directions of the reference wedge, apex at the origin
    _RAYS = np.array([[1.0, -1.0], [-1.0, -1.0]]) / _SQRT2

    def __init__(self, apex):
        super().__init__(2)
        self.apex = _frozen(apex)

    def candidates(self, Z):
        W = Z - self.apex
        a, b = W[:, 0], W[:, 1]
        inside = b >= -np.abs(a)
        # outside the wedge <w, ray> > 0 for both rays, so each candidate is the
        # foot of the perpendicular on its ray's line, at distance |a + b|/sqrt(2)
        # or |b - a|/sqrt(2); the nearer one is (-b - |a|)/sqrt(2)
        S = np.vecdot(W, self._RAYS[:, None, :])                               # (2, N)
        P = np.where(inside[:, None], Z, self.apex + S[:, :, None] * self._RAYS[:, None, :])
        return P, np.where(inside, 0.0, np.abs([a + b, b - a]) / _SQRT2)

    def anchor(self):
        return self.apex.copy()


def _stack(members):
    """Unit normals (m, n) and offsets (m,) of the half-space ``members``."""
    return np.array([hs.zeta for hs in members]), np.array([hs.beta for hs in members])


def _excess(normals, offsets, Z):
    """Largest half-space violation of each row of Z, clipped at 0."""
    return np.maximum((np.vecdot(Z, normals[:, None, :]) - offsets[:, None]).max(0), 0.0)


def _halfspace_step(Y, zeta, beta):
    """Rows of Y projected onto {<zeta, z> <= beta}: the inner step of cyclic
    projections, without the member-row guarantee of ``candidates``."""
    return Y - np.maximum(np.vecdot(Y, zeta) - beta, 0.0)[:, None] * zeta


class HalfSpaceIntersectionInstance(SetInstance):
    """Intersection of half-spaces; projections via Dykstra's alternating corrections."""

    member_tol = 1e-10  # limited by the Dykstra tolerance

    def __init__(self, members, tol=DYKSTRA_TOL, max_iter=DYKSTRA_MAX_ITER):
        if not members:
            raise EmptyCandidates("intersection needs at least one half-space")
        super().__init__(members[0].n)
        self.members = tuple(members)
        self._normals, self._offsets = _stack(self.members)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self._feasible_point = None

    def ensure_nonempty(self):
        """Find a feasible point or raise EmptyInstance; result is cached."""
        if self._feasible_point is not None:
            return self._feasible_point
        # cheap probe: cyclic projections from the origin settle quickly when
        # the intersection is comfortably nonempty
        x = np.zeros((1, self.n))
        for _ in range(200):
            for zeta, beta in zip(self._normals, self._offsets):
                x = _halfspace_step(x, zeta, beta)
            if _excess(self._normals, self._offsets, x)[0] <= 1e-12:
                self._feasible_point = _frozen(x[0])
                return self._feasible_point
        res = linprog(np.zeros(self.n), A_ub=self._normals, b_ub=self._offsets,
                      bounds=[(None, None)] * self.n, method="highs")
        if res.status == 2:
            raise EmptyInstance("half-space intersection is empty")
        if not res.success:
            raise EmptyInstance(f"feasibility LP failed: {res.message}")
        self._feasible_point = _frozen(np.asarray(res.x, dtype=float))
        return self._feasible_point

    def candidates(self, Z):
        P = Z.copy()
        outside = _excess(self._normals, self._offsets, Z) > MEMBER_TOL
        if outside.any():
            try:
                P[outside] = dykstra_project(self.members, Z[outside], self.tol, self.max_iter)[0]
            except ProjectionNotConverged:
                self.ensure_nonempty()  # raises EmptyInstance when that is the cause
                raise
        return P[None], row_norms(Z - P)[None]

    def anchor(self):
        return np.asarray(self.ensure_nonempty(), dtype=float).copy()


class UnionInstance(SetInstance):
    """Union of convex instances; each member contributes its candidates."""

    def __init__(self, members):
        if not members:
            raise EmptyCandidates("union needs at least one member")
        super().__init__(members[0].n)
        self.members = tuple(members)

    def candidates(self, Z):
        parts = [m.candidates(Z) for m in self.members]
        return np.concatenate([P for P, _ in parts]), np.concatenate([D for _, D in parts])

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
        return _readonly(np.cos(ang) * self.normal + np.sin(ang) * self.rotation_partner)

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
        return BallInstance(_readonly(c), self.radius)


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
        return BoxInstance(_readonly(lo), _readonly(hi))


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
        return WedgeInstance(_readonly(self.apex + t * self.apex_velocity))


@dataclass(frozen=True, eq=False)
class HalfSpaceIntersectionSpec(_Composite):
    """Intersection of half-space families.  Fixed independent normals make it
    nonempty for all offsets, so only other intersections are probed at freeze."""

    members: tuple

    convex = True

    def __post_init__(self):
        super().__post_init__()
        N = np.array([m.normal for m in self.members])
        object.__setattr__(self, "_always_nonempty", bool(np.linalg.eigvalsh(N @ N.T)[0] > RANK_TOL ** 2)
                           and all(m.rotation_rate == 0.0 for m in self.members))

    def freeze(self, t, x):
        inst = HalfSpaceIntersectionInstance([m.freeze(t, x) for m in self.members])
        if not self._always_nonempty:
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


def nearest_points(P, D, tie_gap=TIE_TOL):
    """Nearest points of a one-row ``candidates`` result (P, D), ties within
    ``tie_gap`` included, deduplicated and sorted lexicographically: the first
    entry is the deterministic selection of :func:`select_projection`."""
    if len(D) == 1:
        return [P[0, 0]]
    d = D[:, 0]
    dmin = d.min()
    # a member is its own unique projection: no near-tie admits another point
    keep = P[d <= dmin + (tie_gap if dmin > 0.0 else 0.0), 0]
    return sorted(dedupe(keep), key=lambda p: tuple(p.tolist()))


def select_projection(candidates) -> np.ndarray:
    """Deterministic tie-break: lexicographically smallest coordinate vector."""
    cands = list(candidates)
    if not cands:
        raise EmptyCandidates("projection candidate list is empty")
    arrs = [np.asarray(p, dtype=float) for p in cands]
    return min(arrs, key=lambda p: tuple(p.tolist()))


def dykstra_project(members, Z, tol=DYKSTRA_TOL, max_iter=DYKSTRA_MAX_ITER):
    """Nearest point of z, or of each row of Z, on an intersection of half-spaces.

    Returns (points, cycles) with points shaped like the input.  Each row
    stops at its own convergence test: a full cycle moves it by at most
    tol/10 and it meets every constraint within tol.  ``cycles`` is the
    largest per-row count; a row needing more than ``max_iter`` cycles raises
    ProjectionNotConverged.
    """
    members = list(members)
    if not members:
        raise EmptyCandidates("need at least one half-space")
    if tol <= 0:
        raise InvalidVector("tol must be positive")
    n = members[0].n
    single = np.ndim(Z) == 1
    X = as_vector(Z, n, "z")[None] if single else as_rows(Z, n, "Z")
    normals, offsets = _stack(members)
    out = np.empty_like(X)
    rows = np.arange(len(X))
    increments = np.zeros((len(members),) + X.shape)
    for cycle in range(1, max_iter + 1):
        start = X
        for i in range(len(members)):
            Y = X + increments[i]
            X = _halfspace_step(Y, normals[i], offsets[i])
            increments[i] = Y - X
        done = (row_norms(X - start) <= 0.1 * tol) & (_excess(normals, offsets, X) <= tol)
        if done.all():
            out[rows] = X
            return (out[0] if single else out), cycle
        if done.any():  # only the rows still moving cycle on
            out[rows[done]] = X[done]
            rows, X, increments = rows[~done], X[~done], increments[:, ~done]
    raise ProjectionNotConverged(
        f"Dykstra exceeded {max_iter} cycles at tol {tol:g}")

"""Moving-set zoo: parametric families C(t, x), frozen instances, distances, projections.

Every set family is described by an immutable spec that can be frozen at a
given (t, x) into a :class:`SetInstance`.  Spec properties shared by several
families are defined once: in ``_Moving`` for the families built from their
float parameters at (t, x), and in ``_Composite`` for those built from members.
A family depends on x exactly when its ``state_lipschitz`` is nonzero.

A single point has one query, ``nearest(z)``: for a finite list of floats z
it returns every nearest point of z, as lists of floats sorted and
deduplicated by ``_ties``, and the distance.  A member comes back as itself,
bit for bit, at distance 0, so projecting a point of the set returns that
point.  Every kind answers it in closed form on floats: the half-space, ball
and box directly, the intersection by Dykstra on lists, the wedge from its two
feet and the union from its members' ``nearest``.  ``project``, ``distance``
and ``member`` validate z once and then ask ``nearest``.  A spec's ``at(t, x)``
looks the set up, raising as ``freeze`` does, and returns z -> the frozen
instance's ``nearest(z)`` bit for bit.

Batches have one query, ``candidates(Z)``: for a pre-validated finite (N, n)
float array Z it returns ``(P, D)``, candidate nearest points P of shape
(k, N, n) and their distances D of shape (k, N), where k is fixed by the kind
(1 for the convex kinds, 2 for the wedge, the member count for a union).  The
nearest points of row i are the P[j, i] whose D[j, i] is smallest; other
candidates may be strictly farther (the far ray of a wedge).  Row results do
not depend on the other rows of the batch, and a one-row ``candidates`` with
``_ties`` gives ``nearest`` bit for bit.  ``distance_many`` derives from it.
Dot products are ``_dot`` (``_fdot`` on lists), left to right from 0.0: BLAS
(``np.vecdot``, ``@``) fuses the multiply-add on some CPU kernels, and one
fixed order gives one bit pattern per input on every BLAS kernel.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import partial
from operator import add, mul, sub

import numpy as np

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


def _dot(a, b):
    """Sum of a*b over the last axis of two arrays, left to right from 0.0 (``_fdot``):
    they broadcast like ``np.vecdot``, and two 1-d arrays give a float."""
    if a.ndim == 1 == b.ndim:       # as floats: 0-d array arithmetic is slow
        return _fdot(a.tolist(), b.tolist())
    return _fdot(*([v[..., j] for j in range(a.shape[-1])] for v in (a, b)))


def _fdot(a, b):
    """``_dot`` of two lists of floats, for the one-point kernels."""
    s = 0.0
    for p in map(mul, a, b):
        s = s + p
    return s


def row_norms(G):
    """Euclidean norms along the last axis, summed in ``_dot``'s fixed order."""
    return np.sqrt(_dot(G, G))


def _dist(p, q):
    """|p - q| of two lists of floats, in ``row_norms``' order."""
    g = list(map(sub, p, q))
    return math.sqrt(_fdot(g, g))


def _unit(v, name, tol=1e-9):
    v = as_vector(v, name=name)
    nrm = math.sqrt(_dot(v, v))
    if abs(nrm - 1.0) > tol:
        raise InvalidVector(f"{name} must have unit norm, got {nrm!r}")
    return v / nrm


def _frozen(v):
    """A read-only float64 copy of v."""
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
        return self.nearest(as_vector(z, self.n, "z").tolist())[1]

    def member(self, z) -> bool:
        return self.distance(z) <= self.member_tol

    def project(self, z):
        """All nearest points of z as arrays, near-ties within TIE_TOL included (see ``_ties``)."""
        return [np.array(p) for p in self.nearest(as_vector(z, self.n, "z").tolist())[0]]

    def nearest(self, z):
        """(nearest points, distance) of the finite point z, a list of floats:
        the points are lists of floats, sorted and deduplicated by ``_ties``,
        so the first is the deterministic selection."""
        return self.kernel(*self._args, z)      # the kind's kernel, on the parameters it was built from


class HalfSpaceInstance(SetInstance):
    """{z : <zeta, z> <= beta} with unit normal zeta."""

    def __init__(self, zeta, beta):
        super().__init__(len(zeta))
        self.zeta = _frozen(zeta)
        self.beta = float(beta)
        self._args = (self.zeta.tolist(), self.beta)

    def candidates(self, Z):
        v = (_dot(Z, self.zeta) - self.beta)[:, None]
        return np.where(v > 0.0, Z - v * self.zeta, Z)[None], np.maximum(v, 0.0).T

    @staticmethod
    def kernel(zeta, beta, z):
        v = _fdot(z, zeta) - beta
        return ([[zi - v * ci for zi, ci in zip(z, zeta)]], v) if v > 0.0 else ([z], 0.0)

    def anchor(self):
        return self.beta * self.zeta


class BallInstance(SetInstance):
    """Closed ball of fixed center and radius."""

    def __init__(self, center, radius):
        super().__init__(len(center))
        self.center = _frozen(center)
        self.radius = float(radius)
        self._args = (self.center.tolist(), self.radius)

    def candidates(self, Z):
        gap = Z - self.center
        nrm = row_norms(gap)[:, None]
        radial = self.center + self.radius / np.maximum(nrm, self.radius) * gap
        return (np.where(nrm <= self.radius, Z, radial)[None],
                np.maximum(nrm - self.radius, 0.0).T)

    @staticmethod
    def kernel(center, radius, z):
        gap = list(map(sub, z, center))
        nrm = math.sqrt(_fdot(gap, gap))
        if nrm <= radius:
            return [z], 0.0
        return [[ci + radius / nrm * gi for ci, gi in zip(center, gap)]], nrm - radius

    def anchor(self):
        return self.center.copy()


class BoxInstance(SetInstance):
    """Axis-aligned box [lower, upper]."""

    def __init__(self, lower, upper):
        super().__init__(len(lower))
        self.lower = _frozen(lower)
        self.upper = _frozen(upper)
        self._args = (self.lower.tolist(), self.upper.tolist())

    def candidates(self, Z):
        P = np.clip(Z, self.lower, self.upper)
        D = row_norms(Z - P)
        # clipping may turn -0.0 into +0.0, and a gap below 1e-154 squares to 0
        P = np.where((D == 0.0)[:, None], Z, P)
        return P[None], D[None]

    @staticmethod
    def kernel(lower, upper, z):
        # np.clip's order; max and min keep their first argument, the bound, on a tie (0.0 against -0.0)
        p = list(map(min, upper, map(max, lower, z)))
        gap = list(map(sub, z, p))
        d = math.sqrt(_fdot(gap, gap))
        return [z if d == 0.0 else p], d

    def anchor(self):
        return 0.5 * (self.lower + self.upper)


class WedgeInstance(SetInstance):
    """Translate of {(a, b) : b >= -|a|}; nonconvex, projections on two rays."""

    # boundary ray directions of the reference wedge, apex at the origin
    _RAYS = np.array([[1.0, -1.0], [-1.0, -1.0]]) / _SQRT2
    _RAY_LISTS = _RAYS.tolist()

    def __init__(self, apex):
        super().__init__(2)
        self.apex = _frozen(apex)
        self._args = (self.apex.tolist(),)

    def candidates(self, Z):
        W = Z - self.apex
        a, b = W[:, 0], W[:, 1]
        inside = b >= -np.abs(a)
        # outside the wedge <w, ray> > 0 for both rays, so each candidate is the
        # foot of the perpendicular on its ray's line, at distance |a + b|/sqrt(2)
        # or |b - a|/sqrt(2); the nearer one is (-b - |a|)/sqrt(2)
        S = _dot(W, self._RAYS[:, None, :])                                    # (2, N)
        P = np.where(inside[:, None], Z, self.apex + S[:, :, None] * self._RAYS[:, None, :])
        return P, np.where(inside, 0.0, np.abs([a + b, b - a]) / _SQRT2)

    @staticmethod
    def kernel(apex, z):
        w = list(map(sub, z, apex))
        a, b = w
        if b >= -abs(a):
            return [z], 0.0
        feet = []
        for ray in WedgeInstance._RAY_LISTS:
            s = _fdot(w, ray)
            feet.append([ci + s * ri for ci, ri in zip(apex, ray)])
        return _ties(feet, (abs(a + b) / _SQRT2, abs(b - a) / _SQRT2))

    def anchor(self):
        return self.apex.copy()


def _stack(members):
    """Unit normals (m, n) and offsets (m,) of the half-space ``members``."""
    return np.array([hs.zeta for hs in members]), np.array([hs.beta for hs in members])


def _excess(normals, offsets, Z):
    """Largest half-space violation of each row of Z, clipped at 0."""
    return np.maximum((_dot(Z, normals[:, None, :]) - offsets[:, None]).max(0), 0.0)


def _halfspace_step(Y, zeta, beta):
    """Rows of Y projected onto {<zeta, z> <= beta}: the inner step of cyclic
    projections, without the member-row guarantee of ``candidates``."""
    return Y - np.maximum(_dot(Y, zeta) - beta, 0.0)[:, None] * zeta


class HalfSpaceIntersectionInstance(SetInstance):
    """Intersection of half-spaces; projections via Dykstra's alternating corrections."""

    member_tol = 1e-10  # limited by the Dykstra tolerance

    def __init__(self, members):
        if not members:
            raise EmptyCandidates("intersection needs at least one half-space")
        super().__init__(members[0].n)
        self.members = tuple(members)
        self._normals, self._offsets = _stack(self.members)
        self._faces = [m._args for m in self.members]
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
        from scipy.optimize import linprog   # rarely needed, and slow to import
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
                P[outside] = dykstra_project(self.members, Z[outside])[0]
            except ProjectionNotConverged:
                self.ensure_nonempty()  # raises EmptyInstance when that is the cause
                raise
        return P[None], row_norms(Z - P)[None]

    def nearest(self, z):
        return self.kernel(self._faces, self.ensure_nonempty, z)

    @staticmethod
    def kernel(faces, ensure_nonempty, z):
        """``nearest`` on the intersection of the half-spaces ``faces``, (zeta, beta)
        pairs of floats: ``dykstra_project`` on one row of lists, same order and exits."""
        if max(_fdot(z, zeta) - beta for zeta, beta in faces) <= MEMBER_TOL:
            return [z], 0.0
        x = z
        increments = [[0.0] * len(z) for _ in faces]
        for _ in range(DYKSTRA_MAX_ITER):
            start = x
            for i, (zeta, beta) in enumerate(faces):
                y = list(map(add, x, increments[i]))
                v = _fdot(y, zeta) - beta
                v = v if v > 0.0 else 0.0       # np.maximum(v, 0.0), signed zero included
                x = [yi - v * ci for yi, ci in zip(y, zeta)]
                increments[i] = list(map(sub, y, x))
            if _dist(x, start) <= 0.1 * DYKSTRA_TOL and max(_fdot(x, c) - b for c, b in faces) <= DYKSTRA_TOL:
                return [x], _dist(z, x)
        ensure_nonempty()   # raises EmptyInstance when that is the cause
        raise ProjectionNotConverged(
            f"Dykstra exceeded {DYKSTRA_MAX_ITER} cycles at tol {DYKSTRA_TOL:g}")

    def anchor(self):
        return np.asarray(self.ensure_nonempty(), dtype=float).copy()


class UnionInstance(SetInstance):
    """Union of convex instances; each member contributes its candidates."""

    def __init__(self, members):
        if not members:
            raise EmptyCandidates("union needs at least one member")
        super().__init__(members[0].n)
        self.members = tuple(members)
        self._args = ([m.nearest for m in self.members],)

    def candidates(self, Z):
        parts = [m.candidates(Z) for m in self.members]
        return np.concatenate([P for P, _ in parts]), np.concatenate([D for _, D in parts])

    @staticmethod
    def kernel(queries, z):     # on the union of the sets the one-point queries answer
        found = [q(z) for q in queries]      # convex: one point each
        return _ties([ps[0] for ps, _ in found], [d for _, d in found])

    def anchor(self):
        return self.members[0].anchor()


# ---------------------------------------------------------------------------
# moving-set specs
# ---------------------------------------------------------------------------

class _Moving:
    """Family moved by x only through ``state_gain`` and built as ``_instance`` from
    its float parameters ``_params(t, x)``; ``at`` binds them to the kind's kernel."""

    convex = True
    state_gain = 0.0

    @property
    def state_lipschitz(self) -> float:
        return abs(self.state_gain)

    def freeze(self, t, x):
        return self._instance(*self._params(t, x.tolist()))

    def at(self, t, x):
        return partial(self._instance.kernel, *self._params(t, x))


def _store(spec, name, v):
    """Set the field ``name`` of a frozen spec to v as a read-only array, and ``_<name>`` to its floats."""
    object.__setattr__(spec, name, _frozen(v))
    object.__setattr__(spec, f"_{name}", getattr(spec, name).tolist())


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


@dataclass(frozen=True, eq=False)
class HalfSpaceSpec(_Moving):
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
    _instance = HalfSpaceInstance

    def __post_init__(self):
        _store(self, "normal", _unit(self.normal, "normal"))
        if self.state_gain != 0.0 and self.state_direction is None:
            raise InvalidVector("state_direction required when state_gain != 0")
        if self.state_direction is not None:
            _store(self, "state_direction", _unit(self.state_direction, "state_direction"))
        if self.rotation_rate != 0.0:
            if self.rotation_partner is None:
                raise InvalidVector("rotation_partner required when rotation_rate != 0")
            e2 = _unit(self.rotation_partner, "rotation_partner")
            if abs(float(_dot(self.normal, e2))) > 1e-9:
                raise InvalidVector("rotation_partner must be orthogonal to normal")
            e2 = e2 - float(_dot(self.normal, e2)) * self.normal
            _store(self, "rotation_partner", e2 / math.sqrt(_dot(e2, e2)))

    @property
    def n(self):
        return self.normal.size

    def _params(self, t, x):
        zeta = self._normal
        if self.rotation_rate != 0.0:
            ang = self.rotation_rate * t    # NumPy's cos and sin: math's may differ in the last bit
            c, s = float(np.cos(ang)), float(np.sin(ang))
            zeta = [c * a + s * b for a, b in zip(zeta, self._rotation_partner)]
        beta = self.beta0 + self.drift * t
        if self.state_gain != 0.0:
            beta += self.state_gain * _fdot(self._state_direction, x)
        return zeta, beta


@dataclass(frozen=True, eq=False)
class BallSpec(_Moving):
    """Ball with affinely moving center c(t, x) = center + velocity*t + state_gain*x."""

    center: np.ndarray
    radius: float
    velocity: np.ndarray | None = None
    state_gain: float = 0.0
    _instance = BallInstance

    def __post_init__(self):
        c = as_vector(self.center, name="center")
        _store(self, "center", c)
        _store(self, "velocity", np.zeros_like(c) if self.velocity is None else as_vector(self.velocity, c.size, "velocity"))
        if not self.radius > 0:
            raise InvalidVector("ball radius must be positive")

    @property
    def n(self):
        return self.center.size

    def _params(self, t, x):
        c = [ci + t * vi for ci, vi in zip(self._center, self._velocity)]
        if self.state_gain != 0.0:
            c = [ci + self.state_gain * xi for ci, xi in zip(c, x)]
        return c, self.radius


@dataclass(frozen=True, eq=False)
class BoxSpec(_Moving):
    """Axis-aligned box with bounds affine in t."""

    lower: np.ndarray
    upper: np.ndarray
    lower_velocity: np.ndarray | None = None
    upper_velocity: np.ndarray | None = None
    _instance = BoxInstance

    def __post_init__(self):
        lo = as_vector(self.lower, name="lower")
        _store(self, "lower", lo)
        _store(self, "upper", as_vector(self.upper, lo.size, "upper"))
        for name in ("lower_velocity", "upper_velocity"):
            v = getattr(self, name)
            _store(self, name, np.zeros_like(lo) if v is None else as_vector(v, lo.size, name))
        if np.any(self.lower > self.upper):
            raise EmptyInstance("box has crossed bounds at t = 0")

    @property
    def n(self):
        return self.lower.size

    def _params(self, t, x):
        lo = [a + t * v for a, v in zip(self._lower, self._lower_velocity)]
        hi = [a + t * v for a, v in zip(self._upper, self._upper_velocity)]
        if any(a > b for a, b in zip(lo, hi)):
            raise EmptyInstance(f"box has crossed bounds at t = {t!r}")
        return lo, hi


@dataclass(frozen=True, eq=False)
class WedgeSpec(_Moving):
    """Translating wedge {(a, b) : b - apex_b >= -|a - apex_a|} in the plane."""

    apex: np.ndarray
    apex_velocity: np.ndarray | None = None
    _instance = WedgeInstance

    def __post_init__(self):
        _store(self, "apex", as_vector(self.apex, 2, "apex"))
        v = self.apex_velocity
        _store(self, "apex_velocity", np.zeros(2) if v is None else as_vector(v, 2, "apex_velocity"))

    n = 2
    convex = False

    def _params(self, t, x):
        return [a + t * v for a, v in zip(self._apex, self._apex_velocity)],


@dataclass(frozen=True, eq=False)
class HalfSpaceIntersectionSpec(_Composite):
    """Intersection of half-space families.  Fixed independent normals make it
    nonempty for all offsets, so only other intersections are probed at freeze,
    and ``at`` freezes just those, once per lookup: the probe needs an instance."""

    members: tuple

    convex = True

    def __post_init__(self):
        super().__post_init__()
        if not all(isinstance(m, HalfSpaceSpec) for m in self.members):
            raise InvalidVector("intersection members must be half-spaces")
        N = np.array([m.normal for m in self.members])
        object.__setattr__(self, "_always_nonempty", bool(np.linalg.eigvalsh(N @ N.T)[0] > RANK_TOL ** 2)
                           and all(m.rotation_rate == 0.0 for m in self.members))

    def freeze(self, t, x):
        inst = HalfSpaceIntersectionInstance([m.freeze(t, x) for m in self.members])
        if not self._always_nonempty:
            inst.ensure_nonempty()
        return inst

    def at(self, t, x):
        if not self._always_nonempty:
            return self.freeze(t, np.array(x)).nearest
        return partial(HalfSpaceIntersectionInstance.kernel, [m._params(t, x) for m in self.members],
                       lambda: self.freeze(t, np.array(x)).ensure_nonempty())


@dataclass(frozen=True, eq=False)
class UnionSpec(_Composite):
    """Union of convex families; flagged nonconvex.  Members empty at t are skipped."""

    members: tuple

    convex = False

    def __post_init__(self):
        super().__post_init__()
        if not all(m.convex for m in self.members):
            raise InvalidVector("union members must be convex variants")

    def _nonempty(self, t, query):
        found = []
        for m in self.members:
            with contextlib.suppress(EmptyInstance):
                found.append(query(m))
        if not found:
            raise EmptyInstance(f"all {len(self.members)} union members are empty at t = {t!r}")
        return found

    def freeze(self, t, x):
        return UnionInstance(self._nonempty(t, lambda m: m.freeze(t, x)))

    def at(self, t, x):
        return partial(UnionInstance.kernel, self._nonempty(t, lambda m: m.at(t, x)))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def instantiate(spec, t, x) -> SetInstance:
    """Freeze the moving set at (t, x); deterministic in its inputs."""
    return spec.freeze(*checked_point(spec, t, x))


def checked_point(spec, t, x):      # t as a float, x as a finite array of the set's dimension
    if not np.isfinite(t):
        raise InvalidVector(f"time must be finite, got {t!r}")
    return float(t), as_vector(x, spec.n, "x")


def _ties(points, dists):
    """(nearest points, distance) among one point's candidate ``points`` (lists
    of floats) and their ``dists``: the points within TIE_TOL of the least
    distance, deduplicated and sorted lexicographically, so the first entry,
    the lexicographically smallest, is the deterministic selection."""
    dmin = min(dists)
    # a member is its own unique projection: no near-tie admits another point
    cut = dmin + (TIE_TOL if dmin > 0.0 else 0.0)
    return sorted(dedupe([p for p, d in zip(points, dists) if d <= cut])), dmin


def dedupe(rows):
    """The lists of floats in ``rows``, each dropped when within 1e-12 of an earlier kept one."""
    out = []
    for row in rows:
        if not any(_dist(row, q) <= 1e-12 for q in out):
            out.append(row)
    return out


def dykstra_project(members, Z):
    """Nearest point of z, or of each row of Z, on an intersection of half-spaces.

    Returns (points, cycles) with points shaped like the input.  Each row
    stops at its own convergence test: a full cycle moves it by at most
    DYKSTRA_TOL/10 and it meets every constraint within DYKSTRA_TOL.
    ``cycles`` is the largest per-row count; a row needing more than
    DYKSTRA_MAX_ITER cycles raises ProjectionNotConverged.
    """
    members = list(members)
    if not members:
        raise EmptyCandidates("need at least one half-space")
    n = members[0].n
    single = np.ndim(Z) == 1
    X = as_vector(Z, n, "z")[None] if single else as_rows(Z, n, "Z")
    normals, offsets = _stack(members)
    out = np.empty_like(X)
    rows = np.arange(len(X))
    increments = np.zeros((len(members),) + X.shape)
    for cycle in range(1, DYKSTRA_MAX_ITER + 1):
        start = X
        for i in range(len(members)):
            Y = X + increments[i]
            X = _halfspace_step(Y, normals[i], offsets[i])
            increments[i] = Y - X
        done = ((row_norms(X - start) <= 0.1 * DYKSTRA_TOL)
                & (_excess(normals, offsets, X) <= DYKSTRA_TOL))
        if done.all():
            out[rows] = X
            return (out[0] if single else out), cycle
        if done.any():  # only the rows still moving cycle on
            out[rows[done]] = X[done]
            rows, X, increments = rows[~done], X[~done], increments[:, ~done]
    raise ProjectionNotConverged(
        f"Dykstra exceeded {DYKSTRA_MAX_ITER} cycles at tol {DYKSTRA_TOL:g}")

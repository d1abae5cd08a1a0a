"""Moving-set zoo: parametric families C(t, x), frozen instances, distances, projections.

Every set family is described by an immutable spec that can be frozen at a
given (t, x) into a :class:`SetInstance`.  Spec properties shared by several
families are defined once: in ``_Moving`` for every family, built from its
float parameters at (t, x), and in ``_Composite`` for those built from members.
A family depends on x exactly when its ``state_lipschitz`` is nonzero.

A single point has one query, ``nearest(z)``: for a finite list of floats z
it returns every nearest point of z, as lists of floats sorted and
deduplicated by ``_ties``, and the distance.  A member comes back as itself,
bit for bit, at distance 0, so projecting a point of the set returns that
point.  Every kind states its float geometry once, as source:
``query_source(n)`` sets the nearest point p_# and phi from the instance's
``params`` and z_# (a union's keeps ``_ties``' points, which ``points_source``
sorts), ``lookup_source()`` sets the spec's params from ts and s_#, and
``compiled`` builds ``nearest``, ``_params`` and ``dynamics``' loop from them.
A composite's sources are its members', their names suffixed _m<index>.
``project``, ``distance`` and ``member`` validate z once and then ask
``nearest``.

Batches have two queries on a pre-validated finite (N, n) float array Z.
``candidates(Z)`` returns ``(P, D)``, candidate nearest points P of shape
(k, N, n) and their distances D of shape (k, N), where k is fixed by the kind
(1 for a ``convex`` kind, the member count for a union: 2 for the wedge).  The
nearest points of row i are the P[j, i] whose D[j, i] is smallest; other
candidates may be strictly farther (the far face of a wedge).  Row results do
not depend on the other rows of the batch, and a one-row ``candidates`` with
``_ties`` gives ``nearest`` bit for bit.  ``distances(Z)`` is D.min(0) bit for
bit, built without P where the kind can; ``distance_many`` validates Z for it.
Dot products are ``_dot`` (``_fdot`` on lists), left to right from 0.0: BLAS
(``np.vecdot``, ``@``) fuses the multiply-add on some CPU kernels, and one
fixed order gives one bit pattern per input on every BLAS kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from itertools import chain, combinations
from operator import mul, sub

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCandidates,
    EmptyInstance,
    InvalidVector,
    ProjectionNotConverged,
    StepFailure,
)

MEMBER_TOL = 1e-12          # membership slack for analytic variants
TIE_TOL = 1e-9              # absolute distance gap below which projections tie
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 100_000
RANK_TOL = 1e-6             # least singular value of independent normals (squared: eigvalsh of N N^T)
MAX_SUPPORTS = 64           # supports an intersection's emptiness test may enumerate (``_feasible``)


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


def _each(stmt, n, sep="; "):
    """``stmt`` once per coordinate, # replaced by 0..n-1, joined by ``sep``: unrolled source."""
    return sep.join(stmt.replace("#", str(i)) for i in range(n))


def _fsum(term, n):
    """Source of ``_fdot``'s sum of ``term`` over the coordinates, in its order."""
    return "0.0 + " + _each(term, n, " + ")


@lru_cache(maxsize=256)
def compiled(name, params, body, n, lists):
    """The function ``def name(*params)`` that unpacks each list parameter named in ``lists``
    to name_0..name_{n-1}, then runs the statements ``body``: compiled once per process."""
    source = "\n    ".join([f"def {name}({', '.join(params)}):",
                            *(f"{_each(f'{v}_#', n, ', ')}, = {v}" for v in lists), *body])
    namespace = {"sqrt": math.sqrt, "isfinite": math.isfinite, "EmptyInstance": EmptyInstance,
                 "inf": math.inf, "InvalidVector": InvalidVector, "StepFailure": StepFailure,
                 "cos": lambda a: float(np.cos(a)), "sin": lambda a: float(np.sin(a)),   # NumPy's: math's may differ
                 "zoo": sys.modules[__name__]}      # Dykstra's constants, per call, and its probe
    exec(compile(source, f"<sweepsolve {name}>", "exec"), namespace)
    return namespace[name]


@cache
def _query(kind, n):
    """``nearest`` of the instance kind ``kind`` in dimension n, on its ``params`` and z."""
    return compiled("nearest", (*kind.params, "z"), (*kind.query_source(n), f"return {kind.points_source(n)}, phi"),
                    n, (*kind.lists, "z"))


def row_norms(G):
    """Euclidean norms along the last axis, summed in ``_dot``'s fixed order."""
    return np.sqrt(_dot(G, G))


def _gaps(Z, P, kind):
    """Z - P and its row norms, or InvalidVector where a squared norm overflows, as the one-point
    queries raise it."""
    with np.errstate(over="ignore"):
        G = Z - P
        nrm = row_norms(G)
    if np.isinf(nrm).any():
        raise InvalidVector(f"squared gap to the {kind} overflows")
    return G, nrm


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
    """A moving set frozen at one (t, x): pure geometry, immutable, shareable.  Each kind
    defines ``candidates`` and ``anchor()``, a deterministic point of the set centring samplers."""

    member_tol = MEMBER_TOL
    convex = True           # one candidate per point; a union has one per member
    params = lists = ()     # the names of ``_args``, and of those that are lists of floats

    def __init__(self, *args):      # a closed-form kind on its params, each list a read-only float64 copy
        if len(args) != len(self.params):
            raise TypeError(f"{type(self).__name__} takes {len(self.params)} params, got {len(args)}")
        for p, v in zip(self.params, args):
            setattr(self, p, _frozen(v) if p in self.lists else float(v))
        self._args = tuple(getattr(self, p).tolist() if p in self.lists else getattr(self, p) for p in self.params)
        self.n = len(getattr(self, self.lists[0]))
        self.kind = type(self)      # what fixes the query's source, with n

    def distance_many(self, Z) -> np.ndarray:
        """Distance of each row of the (N, n) array Z."""
        return self.distances(as_rows(Z, self.n, "Z"))

    def distances(self, Z):
        return self.candidates(Z)[1].min(0)

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
        return _query(self.kind, self.n)(*self._args, z)    # the kind's query, on the params it was built from

    # the source of ``nearest``'s points once the kind's query has run: the one point p_#
    points_source = staticmethod(lambda n, kinds=(): f"[[{_each('p_#', n, ', ')}]]")


class HalfSpaceInstance(SetInstance):
    """{z : <zeta, z> <= beta} with unit normal zeta."""
    params, lists = ("zeta", "beta"), ("zeta",)

    def distances(self, Z):
        with np.errstate(over="ignore"):
            v = _dot(Z, self.zeta) - self.beta
        if np.isposinf(v).any():        # -inf is a point deep inside
            raise InvalidVector("gap to the half-space overflows")
        return np.maximum(v, 0.0)

    def candidates(self, Z):
        D = self.distances(Z)[:, None]      # v itself where it is positive
        return np.where(D > 0.0, Z - D * self.zeta, Z)[None], D.T

    @staticmethod
    def query_source(n, sfx=""):
        return [f"v = {_fsum(f'z_# * zeta{sfx}_#', n)} - beta{sfx}",
                f"if v <= 0.0: {_each('p_# = z_#', n)}; phi = 0.0",
                "elif v == inf: raise InvalidVector('gap to the half-space overflows')",
                f"else: {_each(f'p_# = z_# - v * zeta{sfx}_#', n)}; phi = v"]

    def anchor(self):
        return self.beta * self.zeta


class BallInstance(SetInstance):
    """Closed ball of fixed center and radius."""
    params, lists = ("center", "radius"), ("center",)

    def candidates(self, Z):
        gap, nrm = _gaps(Z, self.center, "ball")
        nrm = nrm[:, None]
        radial = self.center + self.radius / np.maximum(nrm, self.radius) * gap
        return (np.where(nrm <= self.radius, Z, radial)[None],
                np.maximum(nrm - self.radius, 0.0).T)

    def distances(self, Z):
        return np.maximum(_gaps(Z, self.center, "ball")[1] - self.radius, 0.0)

    @staticmethod
    def query_source(n, sfx=""):
        return [_each(f"g_# = z_# - center{sfx}_#", n), f"nrm = sqrt({_fsum('g_# * g_#', n)})",
                f"if nrm <= radius{sfx}: {_each('p_# = z_#', n)}; phi = 0.0",
                "elif nrm == inf: raise InvalidVector('squared gap to the ball overflows')",
                f"else: {_each(f'p_# = center{sfx}_# + radius{sfx} / nrm * g_#', n)}; phi = nrm - radius{sfx}"]

    def anchor(self):
        return self.center.copy()


class BoxInstance(SetInstance):
    """Axis-aligned box [lower, upper]."""
    params = lists = ("lower", "upper")

    def candidates(self, Z):
        P = np.clip(Z, self.lower, self.upper)
        D = _gaps(Z, P, "box")[1]
        # clipping may turn -0.0 into +0.0, and a gap below 1e-154 squares to 0
        P = np.where((D == 0.0)[:, None], Z, P)
        return P[None], D[None]

    @staticmethod
    def query_source(n, sfx=""):
        # np.clip's order, keeping the bound on a tie (0.0 against -0.0)
        return [_each(f"p_# = z_# if z_# > lower{sfx}_# else lower{sfx}_#", n),
                _each(f"p_# = p_# if p_# < upper{sfx}_# else upper{sfx}_#", n), _each("g_# = z_# - p_#", n),
                f"phi = sqrt({_fsum('g_# * g_#', n)})",
                f"if phi == 0.0: {_each('p_# = z_#', n)}",
                "elif phi == inf: raise InvalidVector('squared gap to the box overflows')"]

    def anchor(self):
        return 0.5 * (self.lower + self.upper)


def _stack(faces):
    """Unit normals (m, n) and offsets (m,) of the half-spaces ``faces``, (zeta, beta) pairs."""
    normals, offsets = zip(*faces)
    return np.array(normals), np.array(offsets)


def _excess(normals, offsets, Z):
    """Largest half-space violation of each row of Z, clipped at 0."""
    return np.maximum((_dot(Z, normals[:, None, :]) - offsets[:, None]).max(0), 0.0)


@lru_cache(maxsize=4096)
def _inverse(rows, bordered):
    """The inverse, as lists of floats, of the Gram matrix of ``rows`` (tuples of floats), bordered
    by ones when ``bordered``, or None when its least |eigenvalue| is at most RANK_TOL**2."""
    G = [[_fdot(a, b) for b in rows] + [1.0] * bordered for a in rows]
    G = np.array(G + [[1.0] * len(rows) + [0.0]] * bordered)
    return None if np.abs(np.linalg.eigvalsh(G)).min() <= RANK_TOL ** 2 else np.linalg.inv(G).tolist()


def _supports(rows, rhs, bordered=False):
    """The active-set enumeration (Goldfarb & Idnani, 1983; Wolfe, 1976, on a hull): for each support S
    of the k ``rows`` (tuples of floats in dimension n), by size from 1 to min(k, n), or n + 1 when
    ``bordered``, then in index order, and whose matrix passes ``_inverse``'s rank test, the weights w
    solving G_S w = rhs_S, or [G_S 1; 1 0] (w, nu) = (rhs_S, 1) when bordered, and the point w @ rows_S."""
    k, n = len(rows), len(rows[0])
    for s in range(1, min(k, n + bordered) + 1):
        for S in combinations(range(k), s):
            sub = tuple(rows[i] for i in S)
            if (inv := _inverse(sub, bordered)) is not None:
                r = [rhs[i] for i in S] + [1.0] * bordered
                w = [_fdot(row, r) for row in inv[:s]]
                yield w, [_fdot(w, col) for col in zip(*sub)]


def _feasible(faces, t=None):
    """The least-norm point of the intersection of the half-spaces ``faces``, (zeta, beta) pairs, as a fresh
    array, or EmptyInstance, naming the stage time t when one is given.  It is exact, by the KKT conditions
    of min |x|: the point -mu @ zeta_S of the first support S, the empty one (the origin) then those of
    ``_supports``, whose multipliers mu = G_S^-1 (-beta_S) are >= 0 and whose point meets every face within
    1e-12 * max(1, sum(mu)), the scale of its rounding (a far set, a thin cone); else the set is empty."""
    normals, offsets = zip(*faces)
    normals = tuple(tuple(map(float, zeta)) for zeta in normals)
    for w, x in chain([([0.0], [0.0] * len(normals[0]))], _supports(normals, offsets)):     # w is -mu
        if max(w) <= 0.0 and all(_fdot(x, z) - b <= 1e-12 * max(1.0, -sum(w)) for z, b in zip(normals, offsets)):
            return np.array(x)
    raise EmptyInstance("half-space intersection is empty" + ("" if t is None else f" at t = {t!r}"))


class _CompositeInstance(SetInstance):
    """A set built from a nonempty sequence of same-dimension member instances: ``_Composite``
    refuses a spec without members, and a union's lookup raises before every member is dead."""

    flags = ()          # names that lead each member's params (see ``_Members``)

    def __init__(self, members):
        self.n, self.kind = members[0].n, _Members(type(self), tuple(m.kind for m in members))
        self.members = tuple(members)
        self._args = tuple(a for m in self.members for a in (True,) * len(self.flags) + m._args)


class HalfSpaceIntersectionInstance(_CompositeInstance):
    """Intersection of half-spaces; projections via Dykstra's alternating corrections."""

    member_tol = 1e-10  # limited by the Dykstra tolerance

    def candidates(self, Z):
        P = Z.copy()
        outside = _excess(*_stack(m._args for m in self.members), Z) > MEMBER_TOL
        if outside.any():
            P[outside] = dykstra_project(self.members, Z[outside])[0]
        return P[None], _gaps(Z, P, "half-space intersection")[1][None]

    @staticmethod
    def query_source(n, sfx="", *, kinds):
        """``dykstra_project`` on one point, unrolled on float locals in its order and with its
        exits: the member shortcut, the budget and tolerances read per call, the probe at the end."""
        faces = [(f"zeta_m{j}{sfx}_#", f"beta_m{j}{sfx}") for j in range(len(kinds))]

        def excess(pt):     # the largest <pt, zeta_j> - beta_j
            return "max((" + "".join(_fsum(f"{pt}_# * {zeta}", n) + f" - {beta}, " for zeta, beta in faces) + "))"
        cycle = [_each("o_# = d_#", n)]
        for j, (zeta, beta) in enumerate(faces):    # v clipped as np.maximum(v, 0.0), signed zero included
            cycle += [_each(f"w_# = d_# + i{j}_#", n), f"v = {_fsum(f'w_# * {zeta}', n)} - {beta}",
                      "v = v if v > 0.0 else 0.0", _each(f"d_# = w_# - v * {zeta}", n), _each(f"i{j}_# = w_# - d_#", n)]
        return [f"if {excess('z')} <= zoo.MEMBER_TOL: {_each('p_# = z_#', n)}; phi = 0.0", "else:",
                f"    {_each('d_# = z_#', n)}; {'; '.join(_each(f'i{j}_# = 0.0', n) for j in range(len(faces)))}",
                "    for _ in range(zoo.DYKSTRA_MAX_ITER):", *("        " + ln for ln in cycle),
                f"        {_each('g_# = d_# - o_#', n)}",
                f"        if sqrt({_fsum('g_# * g_#', n)}) <= 0.1 * zoo.DYKSTRA_TOL and {excess('d')} <= zoo.DYKSTRA_TOL:",
                "            break",
                f"    else: raise zoo._unconverged([{_faces(len(faces), n, sfx)}])",
                f"    {_each('g_# = z_# - d_#', n)}; {_each('p_# = d_#', n)}; phi = sqrt({_fsum('g_# * g_#', n)})",
                "    if phi == inf: raise InvalidVector('squared gap to the half-space intersection overflows')"]

    def anchor(self):
        return _feasible(m._args for m in self.members)


class UnionInstance(_CompositeInstance):
    """Union of convex instances; each member contributes its candidates, and its query keeps
    those that ``_ties`` would keep, on float locals, building no list for the stage."""

    flags = ("live",)   # a spec's lookup marks a member dead while it is empty
    convex = False

    def candidates(self, Z):
        parts = [m.candidates(Z) for m in self.members]
        return np.concatenate([P for P, _ in parts]), np.concatenate([D for _, D in parts])

    def distances(self, Z):
        return np.array([m.distances(Z) for m in self.members]).min(0)

    @staticmethod
    def query_source(n, sfx="", *, kinds):
        """Each live member j's query in member order, its point q<j>_# at distance d<j>, then
        ``_ties``' rule on floats: phi is the least d<j>, member j is kept (keep<j>) within its cut
        unless within 1e-12 of an earlier kept one, and p_# is the least kept point as ``sorted``
        orders lists, the earlier member's on equality."""
        body, kept = ["least = inf"], "False"
        for j, kind in enumerate(kinds):
            body += [f"if live_m{j}{sfx}:", *("    " + ln for ln in kind.query_source(n, f"_m{j}{sfx}")),
                     f"    {_each(f'q{j}_# = p_#', n)}; d{j} = phi", f"    if d{j} < least: least = d{j}"]
        body.append("phi = least; cut = least + (zoo.TIE_TOL if least > 0.0 else 0.0)")
        for j in range(len(kinds)):
            near = "".join(f" or keep{i} and sqrt({_fsum(f'(q{j}_# - q{i}_#) * (q{j}_# - q{i}_#)', n)}) <= 1e-12"
                           for i in range(j))
            less = "".join(f"q{j}_{i} < p_{i} if q{j}_{i} != p_{i} else " for i in range(n))
            body += [f"keep{j} = live_m{j}{sfx} and d{j} <= cut and not (False{near})",
                     f"if keep{j} and (not ({kept}) or ({less}False)): {_each(f'p_# = q{j}_#', n)}"]
            kept += f" or keep{j}"
        return body

    points_source = staticmethod(lambda n, kinds: "sorted([" + ", ".join(
        f"*([[{_each(f'q{j}_#', n, ', ')}]] if keep{j} else ())" for j in range(len(kinds))) + "])")

    def anchor(self):
        """Where the first two faces meet when both members are non-parallel half-spaces: the
        union's complement is an open cone with that apex, the corner where the union is not
        convex (a wedge's apex).  Otherwise the first member's anchor."""
        faces = [m._args for m in self.members[:2] if type(m) is HalfSpaceInstance]
        c = _fdot(faces[0][0], faces[1][0]) if len(faces) == 2 else 1.0
        if 1.0 - abs(c) <= RANK_TOL ** 2:
            return self.members[0].anchor()
        (z0, b0), (z1, b1) = faces     # the least-norm z with <z0, z> = b0 and <z1, z> = b1
        y0, y1 = (b0 - c * b1) / (1.0 - c * c), (b1 - c * b0) / (1.0 - c * c)
        return np.array([y0 * p + y1 * q for p, q in zip(z0, z1)])


@dataclass(frozen=True)
class _Members:
    """The kind of a composite instance: its class and its members' kinds, which fix its query's
    source.  Its params are each member's, led by the class's ``flags`` and suffixed _m<index>."""

    cls: type
    kinds: tuple
    convex = property(lambda self: self.cls.convex)
    points_source = property(lambda self: partial(self.cls.points_source, kinds=self.kinds))
    params = property(lambda self: self._suffixed(lambda kind: (*self.cls.flags, *kind.params)))
    lists = property(lambda self: self._suffixed(lambda kind: kind.lists))
    query_source = property(lambda self: partial(self.cls.query_source, kinds=self.kinds))

    def _suffixed(self, names):
        return tuple(f"{p}_m{j}" for j, kind in enumerate(self.kinds) for p in names(kind))

    def __call__(self, *params):
        """The instance of this kind on its params: each live member's, built from its own."""
        params, members = iter(params), []
        for kind in self.kinds:
            live = all([next(params) for _ in self.cls.flags])
            args = [next(params) for _ in kind.params]
            if live:
                members.append(kind(*args))
        return self.cls(members)


def _faces(k, n, sfx):
    """Source of the k faces of an intersection's lookup or query, (zeta, beta) pairs of floats."""
    return ", ".join(f"([{_each(f'zeta_m{j}{sfx}_#', n, ', ')}], beta_m{j}{sfx})" for j in range(k))


def _unconverged(faces):
    """The error of an exhausted Dykstra budget on the half-spaces ``faces``: ``_feasible`` raises
    EmptyInstance when they have no common point, else it is ProjectionNotConverged."""
    _feasible(faces)
    return ProjectionNotConverged(f"Dykstra exceeded {DYKSTRA_MAX_ITER} cycles at tol {DYKSTRA_TOL:g}")


# ---------------------------------------------------------------------------
# moving-set specs
# ---------------------------------------------------------------------------

class _Moving:
    """Family built as its instance ``kind`` from the params that ``lookup_source(sfx)`` sets from
    ts and s_#, (arguments, statements) with every name suffixed by ``sfx``, compiled once per
    structure by ``_params``: ``freeze`` calls the kind on them, ``penalized_rhs`` the kind's query.
    It moves with x only through ``state_gain``, but a ``_Composite`` through its members."""

    convex = property(lambda self: self.kind.convex)
    state_gain = 0.0

    @property
    def state_lipschitz(self) -> float:
        return abs(self.state_gain)

    @cached_property
    def _params(self):
        args, lookup = self.lookup_source()
        kind, n = self.kind, self.n
        packed = ", ".join(f"[{_each(f'{p}_#', n, ', ')}]" if p in kind.lists else p for p in kind.params)
        lists = tuple(k for k, v in args.items() if isinstance(v, list))
        return partial(compiled("lookup", (*args, "ts", "s"), (*lookup, f"return {packed},"), n, (*lists, "s")),
                       *args.values())

    def freeze(self, t, x):
        return self.kind(*self._params(t, x.tolist()))


def _store(spec, name, v):
    """Set the field ``name`` of a frozen spec to v as a read-only array, and ``_<name>`` to its floats."""
    object.__setattr__(spec, name, _frozen(v))
    object.__setattr__(spec, f"_{name}", getattr(spec, name).tolist())


def _floats(spec, *names):      # a NumPy scalar would run the compiled loop in NumPy arithmetic
    for name in names:
        object.__setattr__(spec, name, float(getattr(spec, name)))


class _Composite(_Moving):
    """Family built from a nonempty tuple of same-dimension ``members`` as ``_instance``."""

    kind = cached_property(lambda self: _Members(self._instance, tuple(m.kind for m in self.members)))

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
    kind = HalfSpaceInstance

    def __post_init__(self):
        _floats(self, "beta0", "drift", "state_gain", "rotation_rate")
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

    def lookup_source(self, sfx=""):
        n, args, lookup = self.n, {"beta0": self.beta0, "drift": self.drift}, [f"beta{sfx} = beta0{sfx} + drift{sfx} * ts"]
        if self.rotation_rate == 0.0:
            args["zeta"] = self._normal
        else:
            args.update(rate=self.rotation_rate, nu=self._normal, mu=self._rotation_partner)
            lookup += [f"ang = rate{sfx} * ts; cs = cos(ang); sn = sin(ang)",
                       _each(f"zeta{sfx}_# = cs * nu{sfx}_# + sn * mu{sfx}_#", n)]
        if self.state_gain != 0.0:
            args.update(gain=self.state_gain, u=self._state_direction)
            lookup.append(f"beta{sfx} = beta{sfx} + gain{sfx} * ({_fsum(f'u{sfx}_# * s_#', n)})")
        return {k + sfx: v for k, v in args.items()}, lookup


@dataclass(frozen=True, eq=False)
class BallSpec(_Moving):
    """Ball with affinely moving center c(t, x) = center + velocity*t + state_gain*x."""

    center: np.ndarray
    radius: float
    velocity: np.ndarray | None = None
    state_gain: float = 0.0
    kind = BallInstance

    def __post_init__(self):
        _floats(self, "radius", "state_gain")
        c = as_vector(self.center, name="center")
        _store(self, "center", c)
        _store(self, "velocity", np.zeros_like(c) if self.velocity is None else as_vector(self.velocity, c.size, "velocity"))
        if not self.radius > 0:
            raise InvalidVector("ball radius must be positive")

    @property
    def n(self):
        return self.center.size

    def lookup_source(self, sfx=""):
        n, args = self.n, {"radius": self.radius, "c0": self._center, "w": self._velocity}
        lookup = [_each(f"center{sfx}_# = c0{sfx}_# + ts * w{sfx}_#", n)]
        if self.state_gain != 0.0:
            args["gain"] = self.state_gain
            lookup.append(_each(f"center{sfx}_# = center{sfx}_# + gain{sfx} * s_#", n))
        return {k + sfx: v for k, v in args.items()}, lookup


@dataclass(frozen=True, eq=False)
class BoxSpec(_Moving):
    """Axis-aligned box with bounds affine in t."""

    lower: np.ndarray
    upper: np.ndarray
    lower_velocity: np.ndarray | None = None
    upper_velocity: np.ndarray | None = None
    kind = BoxInstance

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

    def lookup_source(self, sfx=""):
        n, args = self.n, {"lo0": self._lower, "low": self._lower_velocity, "hi0": self._upper, "hiw": self._upper_velocity}
        return {k + sfx: v for k, v in args.items()}, [
            _each(f"lower{sfx}_# = lo0{sfx}_# + ts * low{sfx}_#", n),
            _each(f"upper{sfx}_# = hi0{sfx}_# + ts * hiw{sfx}_#", n),
            f"if {_each(f'lower{sfx}_# > upper{sfx}_#', n, ' or ')}:",
            "    raise EmptyInstance('box has crossed bounds at t = ' + repr(ts))"]


@dataclass(frozen=True, eq=False)
class HalfSpaceIntersectionSpec(_Composite):
    """Intersection of half-space families, of at most MAX_SUPPORTS supports.  Fixed independent
    normals make it nonempty for all offsets, so only other intersections are probed, exactly, by
    ``_feasible`` on the faces each lookup has just set, at its stage time.  Faces turning at
    different rates can come near-parallel, and there the budget of DYKSTRA_MAX_ITER = 100,000
    Dykstra cycles per query is the only guard."""

    members: tuple

    _instance = HalfSpaceIntersectionInstance

    def __post_init__(self):
        super().__post_init__()
        if not all(isinstance(m, HalfSpaceSpec) for m in self.members):
            raise InvalidVector("intersection members must be half-spaces")
        k, n = len(self.members), self.n
        if (count := sum(math.comb(k, s) for s in range(1, min(k, n) + 1))) > MAX_SUPPORTS:
            raise ValueError(f"{k} half-spaces in dimension {n} have {count} supports, more than {MAX_SUPPORTS}")
        N = np.array([m.normal for m in self.members])
        object.__setattr__(self, "_always_nonempty", bool(np.linalg.eigvalsh(N @ N.T)[0] > RANK_TOL ** 2)
                           and all(m.rotation_rate == 0.0 for m in self.members))

    def lookup_source(self, sfx=""):
        """The members' lookups, suffixed _m<index>, then the probe of their faces when it is needed."""
        args, lookup = {}, []
        for j, m in enumerate(self.members):
            margs, mlookup = m.lookup_source(f"_m{j}{sfx}")
            args.update(margs)
            lookup += mlookup
        if not self._always_nonempty:
            lookup.append(f"zoo._feasible([{_faces(len(self.members), self.n, sfx)}], ts)")
        return args, lookup


@dataclass(frozen=True, eq=False)
class UnionSpec(_Composite):
    """Union of convex families; flagged nonconvex.  Members empty at t are skipped."""

    members: tuple

    _instance = UnionInstance

    def __post_init__(self):
        super().__post_init__()
        if not all(m.convex for m in self.members):
            raise InvalidVector("union members must be convex variants")

    def lookup_source(self, sfx=""):
        """Each member's lookup, suffixed _m<index>: one that raises EmptyInstance leaves its member
        dead, its params None, and the query skips it."""
        args, lookup, k = {}, [], len(self.members)
        for j, m in enumerate(self.members):
            s = f"_m{j}{sfx}"
            margs, mlookup = m.lookup_source(s)
            args.update(margs)
            dead = [_each(f"{p}{s}_#", self.n, " = ") if p in m.kind.lists else p + s     # not its arguments
                    for p in m.kind.params if p + s not in margs]
            lookup += ["try:", *("    " + ln for ln in mlookup), f"    live{s} = True",
                       "except EmptyInstance:", f"    live{s} = False; {' = '.join([*dead, 'None'])}"]
        return args, [*lookup, f"if not ({' or '.join(f'live_m{j}{sfx}' for j in range(k))}):",
                      f"    raise EmptyInstance('all {k} union members are empty at t = ' + repr(ts))"]


def WedgeSpec(apex: np.ndarray, apex_velocity: np.ndarray | None = None) -> UnionSpec:
    """Translating wedge {(a, b) : b - apex_b >= -|a - apex_a|} in the plane: the union of the
    half-planes a + b >= apex_a + apex_b and b - a >= apex_b - apex_a, drifting with the apex."""
    (a0, a1), (v0, v1) = (as_vector(v, 2, name).tolist() for v, name in (
        (apex, "apex"), ((0.0, 0.0) if apex_velocity is None else apex_velocity, "apex_velocity")))
    s = math.sqrt(2.0)
    return UnionSpec((HalfSpaceSpec(normal=[-1.0 / s, -1.0 / s], beta0=(-a0 - a1) / s, drift=(-v0 - v1) / s),
                      HalfSpaceSpec(normal=[1.0 / s, -1.0 / s], beta0=(a0 - a1) / s, drift=(v0 - v1) / s)))


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
    the lexicographically smallest, is the deterministic selection.  A union's
    query inlines this rule; the tests check it against this function."""
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
    ``cycles`` is the largest per-row count.  A row needing more than
    DYKSTRA_MAX_ITER cycles raises EmptyInstance when the intersection is
    empty, else ProjectionNotConverged (``_unconverged``).
    """
    members = list(members)
    if not members:
        raise EmptyCandidates("need at least one half-space")
    n = members[0].n
    single = np.ndim(Z) == 1
    X = as_vector(Z, n, "z")[None] if single else as_rows(Z, n, "Z")
    normals, offsets = _stack(m._args for m in members)
    out = np.empty_like(X)
    rows = np.arange(len(X))
    increments = np.zeros((len(members),) + X.shape)
    for cycle in range(1, DYKSTRA_MAX_ITER + 1):
        start = X
        for i in range(len(members)):
            Y = X + increments[i]
            X = Y - np.maximum(_dot(Y, normals[i]) - offsets[i], 0.0)[:, None] * normals[i]
            increments[i] = Y - X
        with np.errstate(over="ignore"):     # a move whose square overflows is not done
            done = ((row_norms(X - start) <= 0.1 * DYKSTRA_TOL)
                    & (_excess(normals, offsets, X) <= DYKSTRA_TOL))
        if done.all():
            out[rows] = X
            return (out[0] if single else out), cycle
        if done.any():  # only the rows still moving cycle on
            out[rows[done]] = X[done]
            rows, X, increments = rows[~done], X[~done], increments[:, ~done]
    raise _unconverged(m._args for m in members)

"""Scenario documents: strict JSON parsing, hypothesis validation, serialization.

A scenario file is one JSON object with sections problem / operator / set /
lambdas / integrator / assumed / output.  Unknown keys are rejected and every
schema error is addressed by its JSON path.  Hypothesis violations fail fast
with the violated condition named: H_A1, H_A2, H1, H2, feasibility,
penalty-gate.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .dynamics import IntegratorConfig, Scenario, StepStats, Trajectory
from .errors import ParseError, ValidationError
from .operators import IdentityOperator, LinearSPDOperator, ScaledIdentityOperator
from .set_zoo import (
    BallSpec,
    BoxSpec,
    HalfSpaceIntersectionSpec,
    HalfSpaceSpec,
    UnionSpec,
    WedgeSpec,
    instantiate,
)

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    grid_points: int = 1000


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------

def _expect_object(node, path):
    if not isinstance(node, dict):
        raise ParseError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _check_keys(node, path, allowed, required=()):
    unknown = set(node) - set(allowed)
    if unknown:
        raise ParseError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = set(required) - set(node)
    if missing:
        raise ParseError(f"{path}: missing required key(s) {sorted(missing)}")


def _number(node, path, positive=False, nonnegative=False):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ParseError(f"{path}: expected a number, got {node!r}")
    v = float(node)
    if not math.isfinite(v):
        raise ParseError(f"{path}: must be finite, got {v!r}")
    if positive and not v > 0:
        raise ParseError(f"{path}: must be positive, got {v!r}")
    if nonnegative and v < 0:
        raise ParseError(f"{path}: must be nonnegative, got {v!r}")
    return v


def _integer(node, path, minimum=None):
    if isinstance(node, bool) or not isinstance(node, int):
        raise ParseError(f"{path}: expected an integer, got {node!r}")
    if minimum is not None and node < minimum:
        raise ParseError(f"{path}: must be >= {minimum}, got {node}")
    return node


def _vector(node, path, n=None):
    if not isinstance(node, list) or not node:
        raise ParseError(f"{path}: expected a nonempty array of numbers")
    vals = [_number(v, f"{path}[{i}]") for i, v in enumerate(node)]
    if n is not None and len(vals) != n:
        raise ParseError(f"{path}: expected {n} entries, got {len(vals)}")
    return np.array(vals)


def _extended_number(node, path):
    """A positive number or the string "inf"."""
    if isinstance(node, str):
        if node.lower() in ("inf", "infinity"):
            return math.inf
        raise ParseError(f"{path}: expected a number or \"inf\", got {node!r}")
    return _number(node, path, positive=True)


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------

def _build_operator(node, n, path):
    node = _expect_object(node, path)
    kind = node.get("kind")
    if kind == "identity":
        _check_keys(node, path, {"kind"})
        return IdentityOperator()
    if kind == "scaled_identity":
        _check_keys(node, path, {"kind", "gamma"}, required={"gamma"})
        return ScaledIdentityOperator(_number(node["gamma"], f"{path}.gamma", positive=True))
    if kind == "linear_spd":
        _check_keys(node, path, {"kind", "matrix"}, required={"matrix"})
        rows = node["matrix"]
        if not isinstance(rows, list) or not rows:
            raise ParseError(f"{path}.matrix: expected an array of rows")
        matrix = [list(_vector(row, f"{path}.matrix[{i}]", n)) for i, row in enumerate(rows)]
        if len(matrix) != n:
            raise ParseError(f"{path}.matrix: expected {n} rows, got {len(matrix)}")
        return LinearSPDOperator(matrix)
    raise ParseError(f"{path}.kind: unknown operator kind {kind!r}")


_HALF_SPACE_KEYS = {"kind", "normal", "beta0", "drift", "state_gain",
                    "state_direction", "rotation_rate", "rotation_partner"}


def _build_half_space(node, n, path):
    _check_keys(node, path, _HALF_SPACE_KEYS, required={"normal"})
    kwargs = dict(
        normal=_vector(node["normal"], f"{path}.normal", n),
        beta0=_number(node.get("beta0", 0.0), f"{path}.beta0"),
        drift=_number(node.get("drift", 0.0), f"{path}.drift"),
        state_gain=_number(node.get("state_gain", 0.0), f"{path}.state_gain"),
        rotation_rate=_number(node.get("rotation_rate", 0.0), f"{path}.rotation_rate"),
    )
    if "state_direction" in node:
        kwargs["state_direction"] = _vector(node["state_direction"], f"{path}.state_direction", n)
    if "rotation_partner" in node:
        kwargs["rotation_partner"] = _vector(node["rotation_partner"], f"{path}.rotation_partner", n)
    return HalfSpaceSpec(**kwargs)


def _build_set(node, n, path, allow_nonconvex=True):
    node = _expect_object(node, path)
    kind = node.get("kind")
    if kind == "half_space":
        return _build_half_space(node, n, path)
    if kind == "ball":
        _check_keys(node, path, {"kind", "center", "radius", "velocity", "state_gain"},
                    required={"center", "radius"})
        kwargs = dict(center=_vector(node["center"], f"{path}.center", n),
                      radius=_number(node["radius"], f"{path}.radius", positive=True),
                      state_gain=_number(node.get("state_gain", 0.0), f"{path}.state_gain"))
        if "velocity" in node:
            kwargs["velocity"] = _vector(node["velocity"], f"{path}.velocity", n)
        return BallSpec(**kwargs)
    if kind == "box":
        _check_keys(node, path, {"kind", "lower", "upper", "lower_velocity", "upper_velocity"},
                    required={"lower", "upper"})
        kwargs = dict(lower=_vector(node["lower"], f"{path}.lower", n),
                      upper=_vector(node["upper"], f"{path}.upper", n))
        for key in ("lower_velocity", "upper_velocity"):
            if key in node:
                kwargs[key] = _vector(node[key], f"{path}.{key}", n)
        return BoxSpec(**kwargs)
    if kind == "half_space_intersection":
        _check_keys(node, path, {"kind", "members"}, required={"members"})
        members = node["members"]
        if not isinstance(members, list) or not members:
            raise ParseError(f"{path}.members: expected a nonempty array")
        built = []
        for i, m in enumerate(members):
            m = _expect_object(m, f"{path}.members[{i}]")
            if m.get("kind", "half_space") != "half_space":
                raise ParseError(f"{path}.members[{i}].kind: must be half_space")
            built.append(_build_half_space({**m, "kind": "half_space"}, n, f"{path}.members[{i}]"))
        return HalfSpaceIntersectionSpec(tuple(built))
    if kind == "wedge":
        if not allow_nonconvex:
            raise ParseError(f"{path}.kind: wedge is not allowed inside a union")
        if n != 2:
            raise ParseError(f"{path}: wedge requires dimension 2, problem has {n}")
        _check_keys(node, path, {"kind", "apex", "apex_velocity"}, required={"apex"})
        kwargs = dict(apex=_vector(node["apex"], f"{path}.apex", 2))
        if "apex_velocity" in node:
            kwargs["apex_velocity"] = _vector(node["apex_velocity"], f"{path}.apex_velocity", 2)
        return WedgeSpec(**kwargs)
    if kind == "union":
        if not allow_nonconvex:
            raise ParseError(f"{path}.kind: nested unions are not allowed")
        _check_keys(node, path, {"kind", "members"}, required={"members"})
        members = node["members"]
        if not isinstance(members, list) or not members:
            raise ParseError(f"{path}.members: expected a nonempty array")
        built = tuple(_build_set(m, n, f"{path}.members[{i}]", allow_nonconvex=False)
                      for i, m in enumerate(members))
        return UnionSpec(built)
    raise ParseError(f"{path}.kind: unknown set kind {kind!r}")


def _build_integrator(node, path):
    """Range checks live in IntegratorConfig; its ValueError is re-addressed here."""
    if node is None:
        return IntegratorConfig()
    node = _expect_object(node, path)
    _check_keys(node, path, {"method", "safety", "h_max", "tol_adapt"})
    kwargs = {key: _number(node[key], f"{path}.{key}")
              for key in ("safety", "h_max", "tol_adapt") if key in node}
    if "method" in node:
        kwargs["method"] = node["method"]
    try:
        return IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and validate one scenario document.

    Schema violations raise ParseError with the offending JSON path; violated
    solvability hypotheses raise ValidationError with the hypothesis named.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    doc = _expect_object(doc, source)
    _check_keys(doc, source,
                {"problem", "operator", "set", "lambdas", "integrator", "assumed", "output"},
                required={"problem", "operator", "set", "lambdas"})

    prob = _expect_object(doc["problem"], "problem")
    _check_keys(prob, "problem", {"dimension", "horizon", "x0", "allow_infeasible_start"},
                required={"dimension", "horizon", "x0"})
    n = _integer(prob["dimension"], "problem.dimension", minimum=1)
    T = _number(prob["horizon"], "problem.horizon", positive=True)
    x0 = _vector(prob["x0"], "problem.x0", n)
    allow_infeasible = prob.get("allow_infeasible_start", False)
    if not isinstance(allow_infeasible, bool):
        raise ParseError("problem.allow_infeasible_start: expected a boolean")

    operator = _build_operator(doc["operator"], n, "operator")
    operator.check_dim(n)
    moving_set = _build_set(doc["set"], n, "set")

    lam_node = doc["lambdas"]
    if not isinstance(lam_node, list) or not lam_node:
        raise ParseError("lambdas: expected a nonempty array")
    lambdas = tuple(_number(v, f"lambdas[{i}]", positive=True) for i, v in enumerate(lam_node))
    if any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        raise ParseError("lambdas: must be strictly descending")

    integrator = _build_integrator(doc.get("integrator"), "integrator")

    assumed = doc.get("assumed")
    alpha, rho = 1.0, math.inf
    if assumed is not None:
        assumed = _expect_object(assumed, "assumed")
        _check_keys(assumed, "assumed", {"alpha", "rho"})
        if "alpha" in assumed:
            alpha = _number(assumed["alpha"], "assumed.alpha", positive=True)
            if alpha > 1.0:
                raise ParseError("assumed.alpha: must lie in (0, 1]")
        if "rho" in assumed:
            rho = _extended_number(assumed["rho"], "assumed.rho")

    out_node = doc.get("output")
    output = OutputConfig()
    if out_node is not None:
        out_node = _expect_object(out_node, "output")
        _check_keys(out_node, "output", {"dir", "grid_points"})
        kwargs = {}
        if "dir" in out_node:
            if not isinstance(out_node["dir"], str):
                raise ParseError("output.dir: expected a string")
            kwargs["dir"] = out_node["dir"]
        if "grid_points" in out_node:
            kwargs["grid_points"] = _integer(out_node["grid_points"], "output.grid_points", minimum=2)
        output = OutputConfig(**kwargs)

    scenario = Scenario(n=n, T=T, x0=x0, operator=operator, moving_set=moving_set,
                        lambdas=lambdas, integrator=integrator,
                        alpha_assumed=alpha, rho_assumed=rho,
                        allow_infeasible_start=allow_infeasible, output=output)
    validate_scenario(scenario)
    return scenario


def validate_scenario(scenario: Scenario) -> None:
    """Check the solvability hypotheses, naming the first one violated."""
    op = scenario.operator
    spec = scenario.moving_set

    L = spec.state_lipschitz
    if not L < op.m:
        raise ValidationError("H1", f"L < m required (L = {L:g}, m = {op.m:g})")

    margin = op.m * scenario.alpha_assumed ** 2 - L
    if not margin > 0:
        raise ValidationError(
            "H2", f"stability margin m*alpha^2 - L = {margin:g} must be positive "
                  f"(alpha = {scenario.alpha_assumed:g})")

    # unit normal sanity at sample times (rotation preserves the norm exactly)
    ts = np.linspace(0.0, scenario.T, 5)
    for spec_hs in _half_space_leaves(spec):
        for t in ts:
            nrm = float(np.linalg.norm(spec_hs.zeta(t)))
            if abs(nrm - 1.0) > 1e-12:
                raise ValidationError("H1", f"half-space normal drifts off unit norm at t = {t:g}")

    # nonempty instantiation at sample times (EmptyInstance propagates)
    for t in ts:
        instantiate(spec, t, scenario.x0)

    if not scenario.allow_infeasible_start:
        inst0 = instantiate(spec, 0.0, scenario.x0)
        gap = inst0.distance(op.apply(scenario.x0))
        if gap > FEASIBILITY_TOL:
            raise ValidationError(
                "feasibility", f"A(x0) must start in C(0, x0); distance is {gap:g}")

    if math.isfinite(scenario.rho_assumed):
        kt = analysis.kappa_tilde(scenario)
        if kt.value > 0:
            gate = margin * scenario.rho_assumed / kt.value
            bad = [lam for lam in scenario.lambdas if not lam < gate]
            if bad:
                raise ValidationError(
                    "penalty-gate",
                    f"lambda < (m*alpha^2 - L)*rho/kappa_tilde = {gate:g} required, "
                    f"violated by {bad}")


def _half_space_leaves(spec):
    if isinstance(spec, HalfSpaceSpec):
        return [spec]
    if isinstance(spec, (HalfSpaceIntersectionSpec, UnionSpec)):
        out = []
        for m in spec.members:
            out.extend(_half_space_leaves(m))
        return out
    return []


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), source=str(path))


def scenario_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# trajectory CSV and report JSON
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Full-precision CSV with columns t, x_1..x_n, z_1..z_n, phi."""
    n = traj.states.shape[1]
    cols = ["t"] + [f"x_{j + 1}" for j in range(n)] + [f"z_{j + 1}" for j in range(n)] + ["phi"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if traj.lam is not None:
            fh.write(f"# lambda = {_fmt(traj.lam)}\n")
        fh.write(",".join(cols) + "\n")
        for row in np.column_stack([traj.times, traj.states, traj.images, traj.phis]):
            fh.write(",".join([_fmt(v) for v in row.tolist()]) + "\n")


def read_trajectory_csv(path) -> Trajectory:
    """Round-trip reader for CSVs produced by write_trajectory_csv.

    Any malformed content (bad lambda header, column layout, ragged row,
    non-numeric cell, fewer than two data rows) raises ParseError.
    """
    lam = None
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines and lines[0].startswith("#"):
        head = lines.pop(0)
        if "lambda" in head and "=" in head:
            try:
                lam = float(head.split("=", 1)[1])
            except ValueError:
                raise ParseError(f"{path}: lambda header is not a number: {head!r}") from None
    if not lines:
        raise ParseError(f"{path}: empty trajectory file")
    header = lines.pop(0).split(",")
    if header[0] != "t" or header[-1] != "phi" or (len(header) - 2) % 2 != 0:
        raise ParseError(f"{path}: unexpected column layout {header}")
    if len(lines) < 2:
        raise ParseError(f"{path}: a trajectory needs at least two data rows, got {len(lines)}")
    n = (len(header) - 2) // 2
    values = []
    for i, ln in enumerate(lines, start=1):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}: data row {i} has {len(cells)} cells, "
                             f"header has {len(header)}")
        try:
            values.append([float(v) for v in cells])
        except ValueError:
            raise ParseError(f"{path}: data row {i} has a non-numeric cell: {ln!r}") from None
    rows = np.array(values)
    return Trajectory(times=rows[:, 0], states=rows[:, 1:1 + n],
                      images=rows[:, 1 + n:1 + 2 * n], phis=rows[:, -1],
                      lam=lam, stats=StepStats(rows.shape[0] - 1, 0, 0, 0.0, 0.0))


def jsonable(obj):
    """Convert report structures to strict-JSON-safe primitives."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def dump_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def diagnostics_to_dict(diag) -> dict:
    """The per-lambda verdict fields shared by summary, diagnose and report JSON."""
    return {
        "lambda": diag.lam,
        "status": diag.status,
        "phi_max": diag.phi_max,
        "phi_bound": diag.phi_bound,
        "bound_satisfied": diag.bound_satisfied,
        "worst_ratio": diag.worst_ratio,
        "lipschitz_estimate": diag.lipschitz_estimate,
        "lipschitz_bound": diag.lipschitz_bound,
        "lipschitz_ok": diag.lipschitz_ok,
    }


def report_to_dict(report) -> dict:
    per_lambda = [{**diagnostics_to_dict(d),
                   "steps_accepted": d.n_accepted,
                   "steps_rejected": d.n_rejected} for d in report.per_lambda]
    return {
        "kappa_tilde": report.kappa_tilde,
        "alpha": report.alpha,
        "rho": report.rho,
        "margin": report.margin,
        "phi_max": report.phi_max,
        "phi_bound": report.phi_bound,
        "worst_ratio": report.worst_ratio,
        "bound_satisfied": report.bound_satisfied,
        "lipschitz_estimate": report.lipschitz_estimate,
        "lipschitz_bound": report.lipschitz_bound,
        "kappa_estimates": {_fmt(r): v for r, v in sorted(report.kappa_estimates.items())},
        "alpha_estimate": report.alpha_estimate,
        "per_lambda": per_lambda,
        "convergence_table": [
            {"lambda_hi": hi, "lambda_lo": lo, "sup_diff": d}
            for hi, lo, d in report.convergence_table],
        "sup_diff_monotone": report.sup_diff_monotone,
    }

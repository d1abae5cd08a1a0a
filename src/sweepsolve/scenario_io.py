"""Scenario documents: strict JSON parsing, hypothesis validation, serialization.

A scenario file is one JSON object with sections problem / operator / set /
lambdas / integrator / assumed / output.  The parser checks shape only:
types, keys and array lengths, rejecting unknown keys and addressing every
error by its JSON path.  A set's keys are its spec's parameters.  Range
checks live in the constructors (the set specs, ``IntegratorConfig`` and
``Scenario``); their errors are re-raised as ParseError, addressed by the
set's path or the document.  Hypothesis violations fail fast with the
violated condition named: H_A1, H_A2, H1, H2, feasibility, penalty-gate.

A trajectory CSV is non-blank lines: "# lambda = ", the header, then rows of "%.17g" cells,
which NumPy's C text reader reads back bit for bit into one float64 table (peak < 1.5x its bytes).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice

import numpy as np

from . import analysis
from .dynamics import IntegratorConfig, Scenario, StepStats, Trajectory
from .errors import ParseError, SweepSolveError, ValidationError
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
_CSV_BLOCK_ROWS = 1024      # CSV rows per "%.17g" write: bounds the text held in memory


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


def _number(node, path, positive=False):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ParseError(f"{path}: expected a number, got {node!r}")
    v = float(node)
    if not math.isfinite(v):
        raise ParseError(f"{path}: must be finite, got {v!r}")
    if positive and not v > 0:
        raise ParseError(f"{path}: must be positive, got {v!r}")
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


def _optional_object(doc, key, allowed):
    """The optional section doc[key] with only ``allowed`` keys; {} when absent or null."""
    node = doc.get(key)
    if node is None:
        return {}
    _check_keys(_expect_object(node, key), key, allowed)
    return node


def _extended_number(node, path):
    """A number or the string "inf"."""
    if isinstance(node, str):
        if node.lower() in ("inf", "infinity"):
            return math.inf
        raise ParseError(f"{path}: expected a number or \"inf\", got {node!r}")
    return _number(node, path)


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


_SET_KINDS = {"half_space": HalfSpaceSpec, "ball": BallSpec, "box": BoxSpec,
              "wedge": WedgeSpec, "half_space_intersection": HalfSpaceIntersectionSpec,
              "union": UnionSpec}
_parameters = cache(lambda spec: tuple(inspect.signature(spec).parameters.values()))   # inspect is slow: once a kind


def _build_set(node, n, path, default_kind=None):
    """A set spec from its JSON node: the keys are the parameters of the spec's constructor;
    range checks live in the spec, whose errors are re-addressed to ``path``."""
    node = _expect_object(node, path)
    kind = node.get("kind", default_kind)
    spec = _SET_KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ParseError(f"{path}.kind: unknown set kind {kind!r}")
    params = _parameters(spec)
    _check_keys(node, path, {"kind"} | {p.name for p in params},
                required={p.name for p in params if p.default is p.empty})
    kwargs = {}
    for p in params:
        if p.name not in node:
            continue
        v, at = node[p.name], f"{path}.{p.name}"
        if p.name == "members":
            if not isinstance(v, list):
                raise ParseError(f"{at}: expected an array of sets")
            member_kind = "half_space" if spec is HalfSpaceIntersectionSpec else None
            kwargs[p.name] = tuple(_build_set(m, n, f"{at}[{i}]", member_kind)
                                   for i, m in enumerate(v))
        elif "ndarray" in str(p.annotation):    # the annotation string, e.g. "np.ndarray | None"
            kwargs[p.name] = _vector(v, at, n)
        else:
            kwargs[p.name] = _number(v, at)
    try:
        return spec(**kwargs)
    except (ValueError, SweepSolveError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _build_integrator(node, path):
    """RK4 is the one stepper, so ``method`` may only name it.  h_max's range check
    lives in IntegratorConfig; its ValueError is re-addressed here."""
    kwargs = {"h_max": _number(node["h_max"], f"{path}.h_max")} if "h_max" in node else {}
    if node.get("method", "rk4") != "rk4":
        raise ParseError(f"{path}: unknown integrator method {node['method']!r}")
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
    solvability hypotheses raise ValidationError with the hypothesis named
    (H1 and H2 from building the Scenario, the rest from validate_scenario).
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
    T = _number(prob["horizon"], "problem.horizon")
    x0 = _vector(prob["x0"], "problem.x0", n)
    allow_infeasible = prob.get("allow_infeasible_start", False)
    if not isinstance(allow_infeasible, bool):
        raise ParseError("problem.allow_infeasible_start: expected a boolean")

    operator = _build_operator(doc["operator"], n, "operator")
    moving_set = _build_set(doc["set"], n, "set")

    lambdas = tuple(_vector(doc["lambdas"], "lambdas"))

    integrator = _build_integrator(
        _optional_object(doc, "integrator", {"method", "h_max"}), "integrator")

    assumed = _optional_object(doc, "assumed", {"alpha", "rho"})
    alpha = _number(assumed["alpha"], "assumed.alpha") if "alpha" in assumed else 1.0
    rho = _extended_number(assumed["rho"], "assumed.rho") if "rho" in assumed else math.inf

    out_node = _optional_object(doc, "output", {"dir", "grid_points"})
    kwargs = {}
    if "dir" in out_node:
        if not isinstance(out_node["dir"], str):
            raise ParseError("output.dir: expected a string")
        kwargs["dir"] = out_node["dir"]
    if "grid_points" in out_node:
        kwargs["grid_points"] = _integer(out_node["grid_points"], "output.grid_points", minimum=2)
    output = OutputConfig(**kwargs)

    try:
        scenario = Scenario(n=n, T=T, x0=x0, operator=operator, moving_set=moving_set,
                            lambdas=lambdas, integrator=integrator,
                            alpha_assumed=alpha, rho_assumed=rho,
                            allow_infeasible_start=allow_infeasible, output=output)
    except ValueError as exc:     # range checks; H1/H2 ValidationErrors pass through
        raise ParseError(f"{source}: {exc}") from exc
    validate_scenario(scenario)
    return scenario


def validate_scenario(scenario: Scenario) -> None:
    """Check the hypotheses that depend on the geometry, naming the first one
    violated; H1 and H2 hold for every Scenario, which checks them when built."""
    # nonempty instantiation at sample times (EmptyInstance propagates)
    inst0, *_ = [instantiate(scenario.moving_set, t, scenario.x0)
                 for t in np.linspace(0.0, scenario.T, 5)]

    if not scenario.allow_infeasible_start:
        gap = inst0.distance(scenario.operator.apply(scenario.x0))
        if gap > FEASIBILITY_TOL:
            raise ValidationError(
                "feasibility", f"A(x0) must start in C(0, x0); distance is {gap:g}")

    check_penalty_gate(scenario, scenario.lambdas)


def check_penalty_gate(scenario: Scenario, lambdas) -> None:
    """Raise ValidationError("penalty-gate") unless every lambda lies below
    (m*alpha^2 - L)*rho/kappa_tilde; there is no gate while rho is infinite."""
    if math.isfinite(scenario.rho_assumed):
        kt = analysis.kappa_tilde(scenario)
        if kt.value > 0:
            gate = scenario.margin * scenario.rho_assumed / kt.value
            bad = [lam for lam in lambdas if not lam < gate]
            if bad:
                raise ValidationError(
                    "penalty-gate",
                    f"lambda < (m*alpha^2 - L)*rho/kappa_tilde = {gate:g} required, "
                    f"violated by {bad}")


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


def _columns(n):
    return ["t", *(f"x_{j + 1}" for j in range(n)), *(f"z_{j + 1}" for j in range(n)), "phi"]


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Full-precision CSV with columns t, x_1..x_n, z_1..z_n, phi, a block of rows per write."""
    cols = _columns(traj.states.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if traj.lam is not None:
            fh.write(f"# lambda = {_fmt(traj.lam)}\n")
        fh.write(",".join(cols) + "\n")
        line = ",".join(["%.17g"] * len(cols)) + "\n"       # the bytes of format(v, ".17g")
        for i in range(0, len(traj), _CSV_BLOCK_ROWS):
            block = np.column_stack([a[i:i + _CSV_BLOCK_ROWS]
                                     for a in (traj.times, traj.states, traj.images, traj.phis)])
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def read_trajectory_csv(path) -> Trajectory:
    """Round-trip reader for CSVs produced by write_trajectory_csv.

    Grammar: stripped non-blank lines, an optional "# lambda = " line, the column header
    t, x_1..x_n, z_1..z_n, phi (n >= 1), then data rows numbered from 1.  NumPy's C text
    reader parses each cell as ``float`` does, so "%.17g" reads back bit for bit; unlike
    ``float`` it refuses "_" and non-ASCII digits and strips the separators chr(28)-chr(31).
    One float64 table holds the rows, 8*(2n + 2) bytes each (under 1.5x that at the peak),
    and the Trajectory views its columns.  A lambda header that is not a positive finite
    number, another layout, a ragged, non-numeric or non-finite row, times not strictly
    increasing or fewer than two rows raise ParseError, a ragged or non-numeric row first.
    """
    lam, skip = None, 1         # skip: the non-blank lines before data row 1
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:     # bad bytes: bad cells
        lines = filter(None, map(str.strip, fh))
        head = next(lines, "")
        if head.startswith("#"):
            if "lambda" in head and "=" in head:
                try:
                    lam = float(head.split("=", 1)[1])
                except ValueError:
                    lam = math.nan
                if not (lam > 0 and math.isfinite(lam)):      # also false on NaN
                    raise ParseError(f"{path}: lambda header is not a positive finite number: {head!r}")
            head, skip = next(lines, ""), 2
        if not head:
            raise ParseError(f"{path}: empty trajectory file")
        header = head.split(",")
        if len(header) < 4 or header != _columns((len(header) - 2) // 2):
            raise ParseError(f"{path}: unexpected column layout {header}")
        width, first = len(header), next(lines, None)      # NumPy warns on no data
        try:
            rows = np.empty((0, width)) if first is None else np.loadtxt(
                chain([first], lines), delimiter=",", comments=None, ndmin=2)
            if rows.shape[1] != width:
                raise ValueError
        except ValueError:      # name the first bad row: rescan the data, each row read alone
            fh.seek(0)
            for i, ln in enumerate(islice(filter(None, map(str.strip, fh)), skip, None), start=1):
                if (cells := ln.count(",") + 1) != width:
                    raise ParseError(f"{path}: data row {i} has {cells} cells, header has {width}") from None
                try:
                    np.loadtxt([ln], delimiter=",", comments=None)
                except ValueError:
                    raise ParseError(f"{path}: data row {i} has a non-numeric cell: {ln!r}") from None
            raise ParseError(f"{path}: the data rows do not read as one table of numbers") from None
    if len(rows) < 2:
        raise ParseError(f"{path}: a trajectory needs at least two data rows, got {len(rows)}")
    bad = np.flatnonzero(~np.isfinite(rows).all(1))
    if bad.size:
        raise ParseError(f"{path}: data row {bad[0] + 1} has a non-finite cell")
    bad = np.flatnonzero(np.diff(rows[:, 0]) <= 0)
    if bad.size:
        raise ParseError(f"{path}: data row {bad[0] + 2}: times must increase strictly")
    return Trajectory.of(rows, (width - 2) // 2, lam, StepStats(len(rows) - 1, 0, 0, 0.0))


def jsonable(obj):
    """Report structures as strict JSON: string keys, lists for tuples, NaN as null, infinities as "inf"."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def dump_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def diagnostics_to_dict(diag) -> dict:
    """The per-lambda verdict fields shared by summary, diagnose and report JSON."""
    return {"lambda": diag.lam, **{key: getattr(diag, key) for key in (
        "status", "phi_max", "phi_bound", "bound_satisfied", "worst_ratio",
        "lipschitz_estimate", "lipschitz_bound", "lipschitz_ok")}}


def report_to_dict(report) -> dict:
    per_lambda = [{**diagnostics_to_dict(d), "steps_accepted": d.n_accepted, "steps_rejected": d.n_rejected}
                  for d in report.per_lambda]
    return {
        "kappa_tilde": report.kappa_tilde,
        "alpha": report.alpha,
        "rho": report.rho,
        "margin": report.margin,
        **{key: report.worst(key)
           for key in ("phi_max", "phi_bound", "worst_ratio", "lipschitz_estimate")},
        "bound_satisfied": report.bound_satisfied,
        "lipschitz_bound": report.lipschitz_bound,
        "kappa_estimates": {_fmt(r): v for r, v in sorted(report.kappa_estimates.items())},
        "alpha_estimate": report.alpha_estimate,
        "per_lambda": per_lambda,
        "convergence_table": [
            {"lambda_hi": hi, "lambda_lo": lo, "sup_diff": d}
            for hi, lo, d in report.convergence_table],
        "sup_diff_monotone": report.sup_diff_monotone,
    }

"""Scenario documents: strict JSON parsing, hypothesis validation, serialization.

A scenario file is one JSON object: problem (dimension >= 1, horizon, x0, allow_infeasible_start),
operator, set, lambdas, and the optional integrator, assumed (alpha; rho, a number or "inf") and
output.  ``_build`` reads each section that names a constructor, picked from a table by a selector
key: operator by "kind" from ``_OPERATORS``; set by "kind" from ``_SETS``, an intersection's members
half_space by default; integrator by "method" ("rk4" by default) from ``_INTEGRATORS``; output, no
selector, ``OutputConfig``.  Its keys are the constructor's parameters, each value read by its
annotation.  The parser checks shape only (types, keys, lengths, repeated keys, JSON's own limits),
raising ParseError at the JSON path.  Range checks live in the constructors and ``Scenario``: their
errors become ParseErrors at the section's path or the source.  A violated hypothesis is a
ValidationError naming it: H_A1, H_A2 (operator), H1, H2 (``Scenario``), feasibility, penalty-gate.

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
MAX_GRID_POINTS = 1_000_000     # the common grid of a sweep's diagnostics: 8 MB a state coordinate
_CSV_BLOCK_ROWS = 1024      # CSV rows per "%.17g" write: bounds the text held in memory


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    grid_points: int = 1000

    def __post_init__(self):
        if not 2 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(f"grid_points must lie in [2, {MAX_GRID_POINTS}], got {self.grid_points}")


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


def _number(node, path):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ParseError(f"{path}: expected a number, got {node!r}")
    try:
        v = float(node)
    except OverflowError:       # an integer beyond the float range
        v = math.inf if node > 0 else -math.inf
    if not math.isfinite(v):
        raise ParseError(f"{path}: must be finite, got {v!r}")
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


def _array(node, path, items):
    if not isinstance(node, list):
        raise ParseError(f"{path}: expected an array of {items}")
    return node


def _extended_number(node, path):
    """A number or the string "inf"."""
    if isinstance(node, str):
        if node.lower() in ("inf", "infinity"):
            return math.inf
        raise ParseError(f"{path}: expected a number or \"inf\", got {node!r}")
    return _number(node, path)


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a repeated key (json keeps the last one silently)."""
    node = dict(pairs)
    if len(node) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ParseError(f"repeated key {next(key for i, key in enumerate(keys) if key in keys[:i])!r}")
    return node


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------

# a section's table: (selector key, what it selects, {selector value: constructor}); the output
# section has no selector, so its one constructor sits under None, which no JSON key is
_OPERATORS = ("kind", "operator kind", {"identity": IdentityOperator, "scaled_identity": ScaledIdentityOperator,
                                        "linear_spd": LinearSPDOperator})
_SETS = ("kind", "set kind", {"half_space": HalfSpaceSpec, "ball": BallSpec, "box": BoxSpec, "wedge": WedgeSpec,
                              "half_space_intersection": HalfSpaceIntersectionSpec, "union": UnionSpec})
_INTEGRATORS = ("method", "integrator method", {"rk4": IntegratorConfig})
_OUTPUT = (None, "output", {None: OutputConfig})
_parameters = cache(lambda make: tuple(inspect.signature(make).parameters.values()))   # inspect is slow: once a kind


def _build(node, n, path, table, default=None):
    """The object a section names: ``table``'s selector (``default`` when absent) picks the constructor,
    whose errors are re-addressed to ``path``; a ValidationError keeps its hypothesis."""
    selector, what, kinds = table
    node = _expect_object(node, path)
    name = node.get(selector, default)
    make = kinds.get(name) if name is None or isinstance(name, str) else None
    if make is None:
        raise ParseError(f"{path}.{selector}: unknown {what} {name!r}")
    params = _parameters(make)
    _check_keys(node, path, {selector, *(p.name for p in params)},
                required={p.name for p in params if p.default is p.empty})
    kwargs = {}
    for p in params:
        if p.name not in node:
            continue
        v, at, ann = node[p.name], f"{path}.{p.name}", str(p.annotation)    # e.g. "np.ndarray | None"
        if p.name == "members":
            member_kind = "half_space" if make is HalfSpaceIntersectionSpec else None
            kwargs[p.name] = tuple(_build(m, n, f"{at}[{i}]", _SETS, member_kind)
                                   for i, m in enumerate(_array(v, at, "sets")))
        elif "ndarray" in ann:
            kwargs[p.name] = _vector(v, at, n)
        elif ann == "list":
            kwargs[p.name] = [_vector(row, f"{at}[{i}]", n) for i, row in enumerate(_array(v, at, "rows"))]
        elif ann == "str":
            if not isinstance(v, str):
                raise ParseError(f"{at}: expected a string")
            kwargs[p.name] = v
        else:
            kwargs[p.name] = _integer(v, at) if ann == "int" else _number(v, at)
    try:
        return make(**kwargs)
    except ValidationError:
        raise
    except (ValueError, SweepSolveError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and validate one scenario document: a ParseError names the offending JSON
    path, a ValidationError the violated hypothesis (see the module docstring)."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ParseError, ValueError, RecursionError) as exc:     # a repeated key, > 4300 digits, deep nesting
        raise ParseError(f"{source}: {exc}") from exc
    doc = {key: v for key, v in _expect_object(doc, source).items() if v is not None}    # null: absent
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

    operator = _build(doc["operator"], n, "operator", _OPERATORS)
    moving_set = _build(doc["set"], n, "set", _SETS)
    lambdas = tuple(_vector(doc["lambdas"], "lambdas"))
    integrator = _build(doc.get("integrator", {}), n, "integrator", _INTEGRATORS, "rk4")
    assumed = _expect_object(doc.get("assumed", {}), "assumed")
    _check_keys(assumed, "assumed", {"alpha", "rho"})
    alpha = _number(assumed["alpha"], "assumed.alpha") if "alpha" in assumed else 1.0
    rho = _extended_number(assumed["rho"], "assumed.rho") if "rho" in assumed else math.inf
    output = _build(doc.get("output", {}), n, "output", _OUTPUT)

    try:
        scenario = Scenario(n=n, T=T, x0=x0, operator=operator, moving_set=moving_set,
                            lambdas=lambdas, integrator=integrator,
                            alpha_assumed=alpha, rho_assumed=rho,
                            allow_infeasible_start=allow_infeasible, output=output)
        validate_scenario(scenario)
    except ValidationError:     # H1, H2, feasibility, penalty-gate
        raise
    except (ValueError, SweepSolveError) as exc:    # a range check, or a set empty or overflowing at a sample
        raise ParseError(f"{source}: {exc}") from exc
    return scenario


def validate_scenario(scenario: Scenario) -> None:
    """Check the hypotheses that depend on the geometry, naming the first one
    violated; H1 and H2 hold for every Scenario, which checks them when built."""
    # nonempty instantiation at sample times (EmptyInstance propagates; the parser re-addresses it)
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


def read_scenario_text(path) -> str:
    """The file's text, read whole: a decode error's start is the offset of its first byte that is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} (0x{exc.object[exc.start]:02x}) is not UTF-8: {exc.reason}") from None


def load_scenario(path) -> Scenario:
    return parse_scenario(read_scenario_text(path), source=str(path))


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

import inspect
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import sweepsolve as sw
from sweepsolve import scenario_io
from sweepsolve.cli import main
from sweepsolve.scenario_io import write_trajectory_csv, read_trajectory_csv

MINIMAL = {
    "problem": {"dimension": 1, "horizon": 1.0, "x0": [0.0]},
    "operator": {"kind": "identity"},
    "set": {"kind": "half_space", "normal": [-1.0], "drift": -1.0},
    "lambdas": [0.1, 0.05],
}


def doc(**overrides):
    out = json.loads(json.dumps(MINIMAL))
    for key, value in overrides.items():
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_minimal_document_parses():
    sc = sw.parse_scenario(json.dumps(MINIMAL))
    assert sc.n == 1 and sc.T == 1.0
    assert sc.lambdas == (0.1, 0.05)
    assert sc.alpha_assumed == 1.0 and math.isinf(sc.rho_assumed)
    assert sc.integrator == sw.IntegratorConfig()
    # RK4 is the one stepper; corpus files still name it
    sc = sw.parse_scenario(json.dumps(doc(integrator={"method": "rk4", "h_max": 0.01})))
    assert sc.integrator == sw.IntegratorConfig(h_max=0.01)


def test_syntax_error_reports_location():
    with pytest.raises(sw.ParseError) as err:
        sw.parse_scenario("{\n  \"problem\": [,]\n}", source="bad.json")
    assert "bad.json:2" in str(err.value)


def test_unknown_top_level_key_rejected():
    with pytest.raises(sw.ParseError) as err:
        sw.parse_scenario(json.dumps(doc(surprise=1)))
    assert "surprise" in str(err.value)


def test_unknown_nested_key_rejected_with_path():
    d = doc()
    d["set"]["slope"] = 2.0
    with pytest.raises(sw.ParseError) as err:
        sw.parse_scenario(json.dumps(d))
    assert "set" in str(err.value) and "slope" in str(err.value)


@pytest.mark.parametrize("integrator", [{"method": "adaptive"}, {"tol_adapt": 1e-7},
                                        {"safety": 0.5}, {"method": "euler"}])
def test_adaptive_integrator_settings_are_parse_errors(tmp_path, capsys, integrator):
    text = json.dumps(doc(integrator=integrator))
    with pytest.raises(sw.ParseError) as err:
        sw.parse_scenario(text)
    assert str(err.value).startswith("integrator")
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: integrator"), err


def test_missing_section_rejected():
    d = doc()
    del d["operator"]
    with pytest.raises(sw.ParseError):
        sw.parse_scenario(json.dumps(d))


def test_lambdas_must_descend():
    with pytest.raises(sw.ParseError) as err:
        sw.parse_scenario(json.dumps(doc(lambdas=[0.05, 0.1])))
    assert "descending" in str(err.value)


def test_rho_accepts_inf_string():
    sc = sw.parse_scenario(json.dumps(doc(assumed={"alpha": 0.9, "rho": "inf"})))
    assert math.isinf(sc.rho_assumed)
    assert sc.alpha_assumed == 0.9


def test_every_set_kind_parses():
    sets = [
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "velocity": [1.0, 0.0]},
        {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        {"kind": "wedge", "apex": [0.0, 0.0], "apex_velocity": [0.0, 1.0]},
        {"kind": "half_space_intersection",
         "members": [{"normal": [-1.0, 0.0], "drift": -1.0},
                     {"normal": [0.0, -1.0], "drift": -1.0}]},
        {"kind": "union",
         "members": [{"kind": "ball", "center": [-2.0, 0.0], "radius": 2.0},
                     {"kind": "ball", "center": [2.0, 0.0], "radius": 2.0}]},
    ]
    for set_node in sets:
        d = doc(problem={"dimension": 2, "horizon": 1.0, "x0": [0.0, 0.0]},
                set=set_node)
        sc = sw.parse_scenario(json.dumps(d))
        assert sc.n == 2


def test_null_optional_sections_parse_to_defaults():
    sc = sw.parse_scenario(json.dumps(doc(integrator=None, assumed=None, output=None)))
    assert sc.integrator == sw.IntegratorConfig()
    assert sc.alpha_assumed == 1.0 and math.isinf(sc.rho_assumed)
    assert sc.output == sw.OutputConfig()


_BALL = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
_ROTATING = {"kind": "half_space", "normal": [0.0, 1.0], "rotation_rate": 1.0}


@pytest.mark.parametrize("n, set_node", [
    (2, {**_BALL, "radius": 0.0}),
    (2, {**_BALL, "radius": -1.0}),
    (2, {"kind": "ball", "center": [0.0, 0.0]}),
    (2, {**_BALL, "center": [0.0, 0.0, 0.0]}),
    (2, {**_BALL, "radius": "1"}),
    (2, {"kind": "box", "lower": [1.0, 1.0], "upper": [-1.0, -1.0]}),
    (2, {"kind": "half_space", "normal": [1.0, 1.0]}),
    (2, {"kind": "half_space", "normal": [0.0, 1.0], "state_gain": 0.5}),
    (2, _ROTATING),
    (2, {**_ROTATING, "rotation_partner": [0.0, 1.0]}),
    (3, {"kind": "wedge", "apex": [0.0, 0.0, 0.0]}),
    (2, {"kind": "half_space_intersection", "members": [_BALL]}),
    (2, {"kind": "union", "members": [_BALL, {"kind": "wedge", "apex": [0.0, 0.0]}]}),
    (2, {"kind": "union", "members": [{"kind": "union", "members": [_BALL]}]}),
    (2, {"kind": "union", "members": []}),
    (2, {"kind": "half_space_intersection", "members": []}),
    (2, {"kind": "sphere", "center": [0.0, 0.0], "radius": 1.0}),
    (2, {**_BALL, "kind": ["ball"]}),
])
def test_malformed_set_is_a_parse_error_at_its_path(tmp_path, capsys, n, set_node):
    text = json.dumps(doc(problem={"dimension": n, "horizon": 1.0, "x0": [0.0] * n},
                          set=set_node))
    with pytest.raises(sw.ParseError) as err:
        sw.parse_scenario(text)
    assert str(err.value).startswith("set"), err.value
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: set"), err


# ---------------------------------------------------------------------------
# validation gates
# ---------------------------------------------------------------------------

def test_gate_h1_state_gain_at_least_m():
    d = doc()
    d["set"]["state_gain"] = -1.5
    d["set"]["state_direction"] = [1.0]
    with pytest.raises(sw.ValidationError) as err:
        sw.parse_scenario(json.dumps(d))
    assert err.value.hypothesis == "H1"
    assert "L < m" in str(err.value)


def test_gate_h2_margin():
    d = doc(assumed={"alpha": 0.5})
    d["set"]["state_gain"] = -0.5
    d["set"]["state_direction"] = [1.0]
    with pytest.raises(sw.ValidationError) as err:
        sw.parse_scenario(json.dumps(d))
    assert err.value.hypothesis == "H2"


def _half_line(state_gain=0.0, **kwargs):
    return sw.Scenario(**{
        "n": 1, "T": 1.0, "x0": np.array([0.0]), "operator": sw.IdentityOperator(),
        "moving_set": sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0, state_gain=state_gain,
                                       state_direction=[1.0]),
        "lambdas": (0.1,), **kwargs})


def test_scenario_constructor_checks_h1():
    with pytest.raises(sw.ValidationError) as err:
        _half_line(state_gain=-1.5)
    assert err.value.hypothesis == "H1"
    assert "L < m" in str(err.value)


def test_scenario_constructor_checks_h2():
    with pytest.raises(sw.ValidationError) as err:
        _half_line(state_gain=-0.6, alpha_assumed=0.7)      # margin 0.49 - 0.6 < 0
    assert err.value.hypothesis == "H2"
    assert "must be positive (alpha = 0.7)" in str(err.value)


@pytest.mark.parametrize("kwargs, message", [
    ({"alpha_assumed": 0.0}, "alpha must lie in (0, 1]"),
    ({"alpha_assumed": 1.5}, "alpha must lie in (0, 1]"),
    ({"rho_assumed": 0.0}, "rho must be positive"),
    *[({"T": T}, "horizon T must be positive and finite")
      for T in (-1.0, 0.0, math.nan, math.inf)],
    *[({"lambdas": lams}, "lambdas must be nonempty, strictly descending, positive and finite")
      for lams in ((), (0.1, 0.1), (0.05, 0.1), (0.1, -0.05), (math.nan,), (math.inf,))],
])
def test_scenario_constructor_checks_far_parameters(kwargs, message):
    with pytest.raises(ValueError) as err:
        _half_line(**kwargs)
    assert str(err.value).startswith(message)


_PROBLEM = MINIMAL["problem"]

# one row per message of the parser: the constructors' range checks, addressed by the
# document, then each shape check, addressed by its JSON path
_BAD_DOCUMENTS = [
    ({"problem": {"dimension": 1, "horizon": -1.0, "x0": [0.0]}},
     "s.json: horizon T must be positive and finite, got -1.0"),
    ({"problem": {"dimension": 1, "horizon": 0, "x0": [0.0]}},
     "s.json: horizon T must be positive and finite, got 0.0"),
    ({"lambdas": [0.1, -0.05]},
     "s.json: lambdas must be nonempty, strictly descending, positive and finite, got (0.1, -0.05)"),
    ({"lambdas": [0.1, 0.1]},
     "s.json: lambdas must be nonempty, strictly descending, positive and finite, got (0.1, 0.1)"),
    ({"assumed": {"alpha": 1.5}}, "s.json: alpha must lie in (0, 1], got 1.5"),
    ({"assumed": {"alpha": 0.0}}, "s.json: alpha must lie in (0, 1], got 0.0"),
    ({"assumed": {"rho": -1.0}}, "s.json: rho must be positive, got -1.0"),
    ({"problem": []}, "problem: expected an object, got list"),
    ({"problem": {**_PROBLEM, "horizon": math.inf}}, "problem.horizon: must be finite, got inf"),
    ({"output": {"grid_points": 1}}, "output: grid_points must lie in [2, 1000000], got 1"),
    ({"problem": {**_PROBLEM, "dimension": 1.5}}, "problem.dimension: expected an integer, got 1.5"),
    ({"problem": {**_PROBLEM, "dimension": 0}}, "problem.dimension: must be >= 1, got 0"),
    ({"problem": {**_PROBLEM, "x0": []}}, "problem.x0: expected a nonempty array of numbers"),
    ({"assumed": {"rho": "big"}}, "assumed.rho: expected a number or \"inf\", got 'big'"),
    ({"operator": {"kind": "linear_spd", "matrix": 3}}, "operator.matrix: expected an array of rows"),
    ({"operator": {"kind": "linear_spd", "matrix": [[1.0], [1.0]]}}, "operator: matrix must be square, got shape (2, 1)"),
    ({"operator": {"kind": "bogus"}}, "operator.kind: unknown operator kind 'bogus'"),
    ({"set": {"kind": "union", "members": 3}}, "set.members: expected an array of sets"),
    ({"integrator": {"h_max": 0}}, "integrator: h_max must be positive"),
    ({"problem": {**_PROBLEM, "allow_infeasible_start": 1}}, "problem.allow_infeasible_start: expected a boolean"),
    ({"output": {"dir": 3}}, "output.dir: expected a string"),
    ({"output": {"grid_points": 10**30}}, f"output: grid_points must lie in [2, 1000000], got {10**30}"),
    ({"set": {"kind": "half_space_intersection", "members": [{"normal": [1.0]}] * 65}},
     "set: 65 half-spaces in dimension 1 have 65 supports, more than 64"),
]


@pytest.mark.parametrize("overrides, message", _BAD_DOCUMENTS,
                         ids=[f"overrides{i}" for i in range(len(_BAD_DOCUMENTS))])
def test_scenario_range_errors_are_parse_errors(overrides, message):
    with pytest.raises(sw.ParseError) as err:
        sw.parse_scenario(json.dumps(doc(**overrides)), source="s.json")     # inf dumps as Infinity
    assert str(err.value) == message


def test_scenario_margin_is_m_alpha_squared_minus_L(scenario_dir):
    assert _half_line(state_gain=-0.5, alpha_assumed=0.9).margin == 0.9 ** 2 - 0.5
    for path in sorted(scenario_dir.glob("*.json")):
        sc = sw.load_scenario(path)
        assert sc.margin == sc.operator.m * sc.alpha_assumed ** 2 - sc.moving_set.state_lipschitz > 0


def test_gate_feasibility():
    d = doc(problem={"dimension": 1, "horizon": 1.0, "x0": [-0.5]})
    with pytest.raises(sw.ValidationError) as err:
        sw.parse_scenario(json.dumps(d))
    assert err.value.hypothesis == "feasibility"


def test_gate_feasibility_waivable():
    d = doc(problem={"dimension": 1, "horizon": 1.0, "x0": [-0.5],
                     "allow_infeasible_start": True})
    sc = sw.parse_scenario(json.dumps(d))
    assert sc.allow_infeasible_start


def test_gate_penalty_lambda_too_large():
    d = doc(assumed={"alpha": 1.0, "rho": 0.05})
    with pytest.raises(sw.ValidationError) as err:
        sw.parse_scenario(json.dumps(d))
    assert err.value.hypothesis == "penalty-gate"


def test_gate_penalty_admits_small_lambda():
    d = doc(assumed={"alpha": 1.0, "rho": 0.5}, lambdas=[0.1, 0.05])
    sc = sw.parse_scenario(json.dumps(d))  # gate is 0.5, both pass
    assert sc.rho_assumed == 0.5


@pytest.mark.parametrize("operator, message", [
    ({"kind": "scaled_identity", "gamma": 0}, "H_A1: scale must be positive, got 0.0"),
    ({"kind": "linear_spd", "matrix": [[-1.0]]}, "H_A1: matrix is not positive definite (min eigenvalue -1)"),
])
def test_an_operator_hypothesis_passes_through_the_parser(operator, message):
    with pytest.raises(sw.ValidationError) as err:
        sw.parse_scenario(json.dumps(doc(operator=operator)))
    assert err.value.hypothesis == "H_A1" and str(err.value) == message


def test_gate_operator_not_spd():
    d = doc(problem={"dimension": 2, "horizon": 1.0, "x0": [0.0, 0.0]},
            operator={"kind": "linear_spd", "matrix": [[1.0, 2.0], [2.0, 1.0]]},
            set={"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]})
    with pytest.raises(sw.ValidationError) as err:
        sw.parse_scenario(json.dumps(d))
    assert err.value.hypothesis == "H_A1"


def test_gate_property_over_mutated_documents():
    rng = np.random.default_rng(42)
    kinds = ("H1", "feasibility", "penalty-gate")
    for i in range(100):
        kind = kinds[int(rng.integers(len(kinds)))]
        d = doc()
        if kind == "H1":
            d["set"]["state_gain"] = -float(rng.uniform(1.0, 3.0))
            d["set"]["state_direction"] = [1.0]
        elif kind == "feasibility":
            d["problem"]["x0"] = [-float(rng.uniform(0.1, 2.0))]
        else:
            d["assumed"] = {"alpha": 1.0, "rho": float(rng.uniform(0.001, 0.04))}
        with pytest.raises(sw.ValidationError) as err:
            sw.parse_scenario(json.dumps(d))
        assert err.value.hypothesis == kind, f"mutation {i} ({kind}) misclassified"


# ---------------------------------------------------------------------------
# the input boundary: sections built from their constructors, strict JSON
# ---------------------------------------------------------------------------

# a value for every parameter of every table entry, so each builds with all its keys (n = 2)
_SAMPLES = {
    "identity": {},
    "scaled_identity": {"gamma": 2.5},
    "linear_spd": {"matrix": [[2.0, 0.5], [0.5, 1.0]]},
    "half_space": {"normal": [0.6, 0.8], "beta0": 0.5, "drift": -1.0, "state_gain": 0.25,
                   "state_direction": [1.0, 0.0], "rotation_rate": 0.3, "rotation_partner": [-0.8, 0.6]},
    "ball": {"center": [1.0, -2.0], "radius": 1.5, "velocity": [0.5, 0.0], "state_gain": 0.25},
    "box": {"lower": [-1.0, -2.0], "upper": [1.0, 2.0], "lower_velocity": [0.1, 0.0],
            "upper_velocity": [0.0, 0.2]},
    "wedge": {"apex": [0.5, -1.0], "apex_velocity": [0.0, 1.0]},
    "half_space_intersection": {"members": [{"normal": [-1.0, 0.0], "drift": -1.0},
                                            {"kind": "half_space", "normal": [0.0, -1.0], "beta0": 2.0}]},
    "union": {"members": [{"kind": "ball", "center": [-2.0, 0.0], "radius": 2.0},
                          {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}]},
    "rk4": {"h_max": 0.01},
    None: {"dir": "results", "grid_points": 7},     # the output section: no selector
}
_TABLES = {"operator": scenario_io._OPERATORS, "set": scenario_io._SETS,
           "integrator": scenario_io._INTEGRATORS, "output": scenario_io._OUTPUT}


def _direct(kinds, node, default=None):
    """The constructor call a section node stands for, made without the parser."""
    make = kinds[node.get("kind", default)]
    kwargs = {k: v for k, v in node.items() if k != "kind"}
    if "members" in kwargs:
        member_kind = "half_space" if make is sw.HalfSpaceIntersectionSpec else None
        kwargs["members"] = tuple(_direct(kinds, m, member_kind) for m in kwargs["members"])
    return make(**kwargs)


def _same(a, b):
    """a and b have one type and equal state, arrays and floats bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if hasattr(a, "__dict__"):
        return vars(a).keys() == vars(b).keys() and all(_same(v, vars(b)[k]) for k, v in vars(a).items())
    return a == b and repr(a) == repr(b)


@pytest.mark.parametrize("section, name", [(section, name) for section, (_, _, kinds) in _TABLES.items()
                                           for name in kinds])
def test_every_table_entry_round_trips(section, name):
    selector, _, kinds = _TABLES[section]
    params = inspect.signature(kinds[name]).parameters
    assert set(_SAMPLES[name]) == set(params), "the sample must give every parameter"
    node = {**({selector: name} if selector else {}), **_SAMPLES[name]}
    parsed = scenario_io._build(json.loads(json.dumps(node)), 2, section, _TABLES[section])
    expected = _direct(kinds, node) if selector == "kind" else kinds[name](**_SAMPLES[name])
    assert _same(parsed, expected)


def _cli_refuses(tmp_path, capsys, text, message):
    path = tmp_path / "s.json"
    path.write_text(text)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_an_integer_beyond_the_float_range_is_a_parse_error(tmp_path, capsys):
    huge = "1" + "0" * 400
    for old, new, message in [
            ('"horizon": 1.0', f'"horizon": {huge}', "problem.horizon: must be finite, got inf"),
            ('"x0": [0.0]', f'"x0": [-{huge}]', "problem.x0[0]: must be finite, got -inf"),
            ('"drift": -1.0', f'"drift": {huge}', "set.drift: must be finite, got inf")]:
        text = json.dumps(MINIMAL).replace(old, new)
        with pytest.raises(sw.ParseError) as err:
            sw.parse_scenario(text)
        assert str(err.value) == message
        _cli_refuses(tmp_path, capsys, text, message)


@pytest.mark.parametrize("text, message", [
    ('{"problem": ' + "9" * 5000 + "}", "s.json: Exceeds the limit (4300 digits) for integer string conversion"),
    ("[" * 100_000, "s.json: maximum recursion depth exceeded"),
    ('{"problem": [,]}', "s.json:1:14: Expecting value"),
], ids=["5000_digits", "100000_brackets", "syntax"])
def test_json_decoder_failures_are_parse_errors(tmp_path, capsys, text, message):
    with pytest.raises(sw.ParseError) as err:
        sw.parse_scenario(text, source="s.json")
    assert str(err.value).startswith(message)
    path = tmp_path / "s.json"
    path.write_text(text)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / message}"), err


def test_a_repeated_key_is_a_parse_error(tmp_path, capsys):
    text = json.dumps(MINIMAL)
    for repeated, key in [(text.replace('"lambdas"', '"lambdas": [0.2], "lambdas"'), "lambdas"),
                          (text.replace('"drift"', '"drift": 0.0, "drift"'), "drift")]:
        with pytest.raises(sw.ParseError) as err:
            sw.parse_scenario(repeated, source="s.json")
        assert str(err.value) == f"s.json: repeated key {key!r}"
        path = tmp_path / "s.json"
        path.write_text(repeated)
        _cli_refuses(tmp_path, capsys, repeated, f"{path}: repeated key {key!r}")


_BOX_CROSSING = {"kind": "box", "lower": [0.0], "upper": [1.0], "lower_velocity": [4.0]}


@pytest.mark.parametrize("overrides, message", [
    ({"set": _BOX_CROSSING, "problem": {**_PROBLEM, "x0": [0.5]}}, "s.json: box has crossed bounds at t = 0.5"),
    ({"operator": {"kind": "scaled_identity", "gamma": 1e300}, "problem": {**_PROBLEM, "x0": [1e10]}},
     "s.json: z contains non-finite entries"),
    ({"problem": {**_PROBLEM, "x0": [-1e308]}, "set": {"kind": "half_space", "normal": [1.0]},
      "assumed": {"rho": 1.0}}, "s.json: sample ball radius must be finite, got inf"),
    ({"set": {"kind": "ball", "center": [0.0], "radius": 1.0, "velocity": [1e300]}, "problem": {**_PROBLEM, "horizon": 1e10},
      "assumed": {"rho": 1.0}}, "s.json: squared gap to the ball overflows"),
], ids=["box_crossing_at_a_sample_time", "image_of_x0_overflows", "infinite_gate_sample_radius",
        "ball_gap_overflows_in_the_gate"])
def test_a_geometry_error_while_validating_is_a_parse_error(overrides, message):
    # found by the fuzz below: these escaped parse_scenario as EmptyInstance or InvalidVector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sw.ParseError) as err:
            sw.parse_scenario(json.dumps(doc(**overrides)), source="s.json")
    assert str(err.value) == message


@pytest.mark.parametrize("matrix, hypothesis", [([[1e308]], None), ([[1.0, 1e308], [-1e308, 1.0]], "H_A1")])
def test_a_huge_matrix_is_checked_without_overflow(matrix, hypothesis):
    # K + K^T overflowed to inf with a RuntimeWarning: the check and the symmetric part use halves
    d = doc(problem={"dimension": len(matrix), "horizon": 1.0, "x0": [0.0] * len(matrix)},
            operator={"kind": "linear_spd", "matrix": matrix}, set={"kind": "ball", "center": [0.0] * len(matrix),
                                                                   "radius": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if hypothesis is None:
            assert sw.parse_scenario(json.dumps(d)).operator.m == 1e308
        else:
            with pytest.raises(sw.ValidationError) as err:
                sw.parse_scenario(json.dumps(d))
            assert err.value.hypothesis == hypothesis


class _Object(list):
    """A JSON object as its (key, value) pairs, so a key may repeat."""


class _Literal(str):
    """A JSON number as its text, which may lie beyond the float range."""


def _text(v):
    if isinstance(v, _Object):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(x)}" for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(map(_text, v)) + "]"
    return v if isinstance(v, _Literal) else json.dumps(v)


def _pairs(v):
    if isinstance(v, dict):
        return _Object([k, _pairs(x)] for k, x in v.items())
    return [_pairs(x) for x in v] if isinstance(v, list) else v


def _slots(v):
    """(container, index) of every value below v, an object's pair included."""
    if isinstance(v, list):
        for i, x in enumerate(v):
            yield v, i
            yield from _slots(_get(v, i))


def _get(container, i):
    return container[i][1] if isinstance(container, _Object) else container[i]


def _set(container, i, value):
    if isinstance(container, _Object):
        container[i][1] = value
    else:
        container[i] = value


_EXPONENT = st.one_of(st.integers(-3, 3), st.integers(-400, 400))
_NUMBER = st.builds(_Literal, st.one_of(
    st.builds("{}{}e{}".format, st.sampled_from(["", "-"]), st.sampled_from(["1", "2.5", "0.75"]), _EXPONENT),
    st.builds(lambda sign, k: f"{sign}{10 ** k}", st.sampled_from(["", "-"]), st.integers(0, 400)),
    st.sampled_from(["0", "1", "-1", "0.5", "2", "NaN", "Infinity", "-Infinity"])))
_WILD = st.one_of(
    _NUMBER, _NUMBER, st.lists(_NUMBER, max_size=3),
    st.lists(st.lists(_NUMBER, min_size=1, max_size=3), min_size=1, max_size=3),
    st.sampled_from([None, True, "inf", "x", "rk4", *(k for k in _SAMPLES if k)]), st.builds(_Object))
_FUZZ_BASES = [
    {"problem": {"dimension": 2, "horizon": 1.0, "x0": [0.0, 0.0], "allow_infeasible_start": True},
     "operator": {"kind": operator, **_SAMPLES[operator]}, "set": {"kind": kind, **_SAMPLES[kind]},
     "lambdas": [0.1, 0.05], "integrator": {"method": "rk4", "h_max": 0.1},
     "assumed": {"alpha": 0.9, "rho": rho}, "output": _SAMPLES[None]}
    for kind in scenario_io._SETS[2] for operator in scenario_io._OPERATORS[2] for rho in ("inf", 10.0)]


@st.composite
def _documents(draw):
    """A document over every operator and set kind, then up to five edits anywhere in it,
    most of them a number replaced by an extreme one: a value replaced by a wrong type, an
    unknown or a repeated key, a key or an entry dropped."""
    root = _pairs(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(0, 5))):
        slots = list(_slots(root))
        numbers = [slot for slot in slots if isinstance(_get(*slot), (float, _Literal))]
        edit = draw(st.sampled_from(["number"] * 4 + ["wild", "add", "drop"]))
        if edit == "number" and numbers:
            _set(*draw(st.sampled_from(numbers)), draw(_NUMBER))
        elif edit == "wild":
            _set(*draw(st.sampled_from(slots)), draw(_WILD))
        else:
            node = draw(st.sampled_from([root, *(c for c, _ in slots)]))
            if edit == "drop" and node:
                del node[draw(st.integers(0, len(node) - 1))]
            elif isinstance(node, _Object):
                node.append([draw(st.sampled_from(["surprise", *(k for k, _ in node)])), draw(_WILD)])
            else:
                node.append(draw(_WILD))
    return _text(root)


@seed(20260)
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_documents())
def test_a_fuzzed_document_parses_or_names_its_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert isinstance(sw.parse_scenario(text, source="fuzz.json"), sw.Scenario)
        except (sw.ParseError, sw.ValidationError):
            pass


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------

def test_corpus_parses_and_is_large_enough(scenario_dir):
    paths = sorted(scenario_dir.glob("*.json"))
    assert len(paths) >= 7
    admissible = []
    for path in paths:
        sc = sw.load_scenario(path)
        if not sc.allow_infeasible_start:
            admissible.append((path.name, sc))
    assert len(admissible) >= 6
    names = {name for name, _ in admissible}
    assert "tracking_halfline_state_feedback.json" in names
    assert "wedge_rising.json" in names


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_trajectory_csv_round_trip(tmp_path):
    sc = sw.parse_scenario(json.dumps(MINIMAL))
    traj = sw.integrate(sc, 0.05)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    assert back.lam == 0.05
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.images, traj.images)
    assert np.array_equal(back.phis, traj.phis)


def test_csv_columns_layout(tmp_path):
    sc = sw.parse_scenario(json.dumps(doc(
        problem={"dimension": 2, "horizon": 1.0, "x0": [0.0, 0.0]},
        set={"kind": "ball", "center": [0.0, 0.0], "velocity": [1.0, 0.0], "radius": 1.0})))
    traj = sw.integrate(sc, 0.1)
    path = tmp_path / "traj2.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# lambda = ")
    assert lines[1] == "t,x_1,x_2,z_1,z_2,phi"


def test_csv_text_is_pinned(tmp_path):
    # signed zeros, the smallest subnormal, a value near overflow and 0.1
    traj = sw.Trajectory(
        np.array([0.0, 0.1, 1.0]),
        np.array([[-0.0, 0.1], [5e-324, 1e308], [1 / 3, -2.5]]),
        np.array([[1e308, -0.0], [0.1, 5e-324], [-1e-5, 123456789.0]]),
        np.array([5e-324, -0.0, 0.1]), 0.1)
    path = tmp_path / "pinned.csv"
    write_trajectory_csv(path, traj)
    assert path.read_bytes().decode("utf-8") == (
        "# lambda = 0.10000000000000001\n"
        "t,x_1,x_2,z_1,z_2,phi\n"
        "0,-0,0.10000000000000001,1e+308,-0,4.9406564584124654e-324\n"
        "0.10000000000000001,4.9406564584124654e-324,1e+308,0.10000000000000001,"
        "4.9406564584124654e-324,-0\n"
        "1,0.33333333333333331,-2.5,-1.0000000000000001e-05,123456789,0.10000000000000001\n")
    back = read_trajectory_csv(path)        # and reads back bit for bit, signs of zero included
    for got, want in zip((back.times, back.states, back.images, back.phis),
                         (traj.times, traj.states, traj.images, traj.phis)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("body, message", [
    ("t,x_1,z_1,phi\n0,0,0,0\n0.5,0.1,0.1\n1,0.2,0.2,0\n", "data row 2 has 3 cells, header has 4"),
    ("t,x_1,z_1,phi\n0,0,0,0\n0.5,0,0,0\n1,abc,0.1,0\n",
     "data row 3 has a non-numeric cell: '1,abc,0.1,0'"),
    # rows stream in, so a one-row file's bad cell is named before its row count
    ("t,x_1,z_1,phi\n0,abc,0,0\n", "data row 1 has a non-numeric cell: '0,abc,0,0'"),
    ("t,x_1,z_1,phi\n0,0,0\n", "data row 1 has 3 cells, header has 4"),
    ("t,x_1,z_1,phi\n0,0,0,0\n", "a trajectory needs at least two data rows, got 1"),
])
def test_malformed_csv_row_is_named(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(sw.ParseError) as raised:
        read_trajectory_csv(path)
    assert str(raised.value) == f"{path}: {message}"


_HEAD = b"t,x_1,z_1,phi\n"


@pytest.mark.parametrize("body, want", [
    # accepted, as float() reads each cell of the stripped non-blank lines
    (_HEAD + b"0,0,0,0\n \t \n1,0.5,0.5,0\n", [[0, 0, 0, 0], [1, 0.5, 0.5, 0]]),
    (b"# lambda = 0.1\r\nt,x_1,z_1,phi\r\n0,0,0,0\r\n1,0.5,0.5,0\r\n", [[0, 0, 0, 0], [1, 0.5, 0.5, 0]]),
    (_HEAD + b"0 , \t0,0\t,0\n1,  0.5 ,0.5,\t-0\n", [[0, 0, 0, 0], [1, 0.5, 0.5, -0.0]]),
    (_HEAD + b"+0,+1e-3,0,+0\n+1,0.5,+.5,0\n", [[0, 1e-3, 0, 0], [1, 0.5, 0.5, 0]]),
    (_HEAD + b"0,0,0,0\n1,0.5,0.5,0\n\n\n  \n", [[0, 0, 0, 0], [1, 0.5, 0.5, 0]]),
    # rejected, the bad row named
    (_HEAD + b"0,0,0,0\n1,,0.5,0\n", "data row 2 has a non-numeric cell: '1,,0.5,0'"),
    (_HEAD + b'0,0,0,0\n1,"0.5",0.5,0\n', "data row 2 has a non-numeric cell: '1,\"0.5\",0.5,0'"),
    (_HEAD + b"0,0,0,0,\n1,0.5,0.5,0\n", "data row 1 has 5 cells, header has 4"),
    (_HEAD + b"0,0,0,0\n# note\n1,0.5,0.5,0\n", "data row 2 has 1 cells, header has 4"),
    (_HEAD + b"0,0,0,0\n#,0,0,0\n1,0.5,0.5,0\n", "data row 2 has a non-numeric cell: '#,0,0,0'"),
    # where NumPy's C reader and float() part: float() reads 1_0 as 10 and the Arabic-Indic
    # digit as 1, and refuses \x1c around a digit; no bytes of this kind are ever written.
    # A byte that is not UTF-8 was a UnicodeDecodeError; now it makes a non-numeric row.
    (_HEAD + b"0,0,0,0\n1,1_0,0.5,0\n", "data row 2 has a non-numeric cell: '1,1_0,0.5,0'"),
    (_HEAD + "0,0,0,0\n1,١,0.5,0\n".encode(), "data row 2 has a non-numeric cell: '1,١,0.5,0'"),
    (_HEAD + b"0,0,0,0\n1,\x1c1,0.5,0\n", [[0, 0, 0, 0], [1, 1, 0.5, 0]]),
    (_HEAD + b"0,0,0,0\n1,\xff,0.5,0\n", "data row 2 has a non-numeric cell: '1,\\udcff,0.5,0'"),
], ids=["whitespace_line", "crlf", "padded_cells", "leading_plus", "trailing_blank_lines",
        "empty_cell", "quoted_cell", "trailing_comma", "comment_line", "comment_cells",
        "underscore_digits", "non_ascii_digit", "ascii_separator", "non_utf8_byte"])
def test_csv_grammar(tmp_path, body, want):
    path = tmp_path / "grammar.csv"
    path.write_bytes(body)
    if isinstance(want, str):
        with pytest.raises(sw.ParseError) as raised:
            read_trajectory_csv(path)
        assert str(raised.value) == f"{path}: {want}"
    else:
        back = read_trajectory_csv(path)
        got = np.column_stack((back.times, back.states, back.images, back.phis))
        assert got.tobytes() == np.array(want, dtype=float).tobytes()     # signs of zero too


@pytest.mark.parametrize("body, message", [
    (_HEAD + "".join(f"{i},0,0,0\n" for i in range(60_000)).encode() + b"60000,0,x,0\n",
     "data row 60001 has a non-numeric cell: '60000,0,x,0'"),
    (_HEAD + "".join(f"{i},0,0,0\n" for i in range(60_000)).encode() + b"60000,0,0\n",
     "data row 60001 has 3 cells, header has 4"),
    (_HEAD, "a trajectory needs at least two data rows, got 0"),
    (b"# lambda = 0.1\n" + _HEAD + b"\n \n", "a trajectory needs at least two data rows, got 0"),
    (b"", "empty trajectory file"),
    (b"# lambda = 0.1\n\n", "empty trajectory file"),
], ids=["bad_cell_at_row_60001", "ragged_row_60001", "header_only", "lambda_header_and_blanks", "empty_file",
        "lambda_header_only"])
def test_csv_error_path_names_the_row_without_warnings(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # NumPy's "input contained no data" must not escape
        with pytest.raises(sw.ParseError) as raised:
            read_trajectory_csv(path)
    assert str(raised.value) == f"{path}: {message}"


_MEMORY_NODES = 20_000


@pytest.mark.parametrize("problem", [
    doc(integrator={"h_max": 1.0 / _MEMORY_NODES}),
    doc(problem={"dimension": 2, "horizon": 0.25, "x0": [-0.25, 0.0]},
        operator={"kind": "scaled_identity", "gamma": 2.0},
        set={"kind": "ball", "center": [0.0, 0.0], "velocity": [1.0, 0.0], "radius": 1.0},
        integrator={"h_max": 0.25 / _MEMORY_NODES}),
], ids=["drift_n1", "ball_n2"])
def test_a_trajectory_costs_its_float_table(tmp_path, problem):
    # integrate and read_trajectory_csv each peak within 1.5x of 8*(2n + 2) bytes a node
    sc = sw.parse_scenario(json.dumps(problem))
    row_bytes = 8 * (2 * sc.n + 2)
    path = tmp_path / "traj.csv"

    def peak_per_node(run):
        tracemalloc.start()
        try:
            traj = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == _MEMORY_NODES + 1
        return peak / len(traj)

    write_trajectory_csv(path, sw.integrate(sc, 0.05))     # first use fills the caches
    per_node = peak_per_node(lambda: sw.integrate(sc, 0.05))
    assert per_node <= 1.5 * row_bytes, f"integrate: {per_node:.1f} B a node"
    per_node = peak_per_node(lambda: read_trajectory_csv(path))
    assert per_node <= 1.5 * row_bytes, f"read_trajectory_csv: {per_node:.1f} B a node"


def test_block_writer_matches_the_per_cell_writer(tmp_path):
    # one row past a full block, every cell from a set of hard cases
    rows = scenario_io._CSV_BLOCK_ROWS + 1
    special = np.array([-0.0, 5e-324, 1e-300, 1e16, 0.1, -1e16, 1 / 3])
    cells = special[np.arange(rows * 6).reshape(rows, 6) % len(special)]
    traj = sw.Trajectory(cells[:, 0], cells[:, 1:3], cells[:, 3:5], cells[:, 5], 5e-4)
    path = tmp_path / "blocks.csv"
    write_trajectory_csv(path, traj)
    per_cell = ["# lambda = 0.00050000000000000001", "t,x_1,x_2,z_1,z_2,phi"]
    per_cell += [",".join(format(v, ".17g") for v in row) for row in cells.tolist()]
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == "" and len(lines) == len(per_cell)
    for got, want in zip(lines, per_cell):     # line by line: a diff of the whole text is slow
        assert got == want


@pytest.mark.parametrize("body", [
    "t,x_1,z_1,phi\n0,0,0,0\n0.5,0.1,0.1\n1,0.2,0.2,0\n",        # ragged row
    "t,x_1,z_1,phi\n0,0,0,0\n0.5,abc,0.1,0\n",                    # non-numeric cell
    "t,x_1,z_1,phi\n",                                            # header only
    "t,x_1,z_1,phi\n0,0,0,0\n",                                   # one node, no step
    "# lambda = fast\nt,x_1,z_1,phi\n0,0,0,0\n1,0.1,0.1,0\n",     # bad lambda header
    "# lambda = 0.1\nt,x_1,x_2,z_1,z_2,phi\n0,0,0,0,0,0\n1,0.1,0,0.1,0,0\n",  # 2-d, scenario 1-d
    "# lambda = inf\nt,x_1,z_1,phi\n0,0,0,0\n1,0.1,0.1,0\n",      # infinite lambda
    "# lambda = nan\nt,x_1,z_1,phi\n0,0,0,0\n1,0.1,0.1,0\n",      # NaN lambda
    "# lambda = -0.1\nt,x_1,z_1,phi\n0,0,0,0\n1,0.1,0.1,0\n",     # negative lambda
    "# lambda = 0\nt,x_1,z_1,phi\n0,0,0,0\n1,0.1,0.1,0\n",        # zero lambda
    "# lambda = 0.1\nt,x_1,z_1,phi\n0,0,0,0\n1,nan,0.1,0\n",      # non-finite cell
    "# lambda = 0.1\nt,x_1,z_1,phi\n0,0,0,0\n0,0,0,0\n1,0.1,0.1,0\n",  # repeated time
    "# lambda = 0.1\nt,a,b,phi\n0,0,0,0\n1,1,1,0\n",            # columns not x_1, z_1
])
def test_malformed_trajectory_csv_is_a_parse_error(tmp_path, scenario_dir, capsys, body):
    """Every body is rejected by the reader, except the well-formed 2-d one,
    which ``diagnose`` must reject because the scenario is 1-d."""
    from sweepsolve.cli import main

    path = tmp_path / "bad.csv"
    path.write_text(body)
    if "x_2" in body:
        assert read_trajectory_csv(path).states.shape[1] == 2
    else:
        with pytest.raises(sw.ParseError):
            read_trajectory_csv(path)
    code = main(["diagnose", "--scenario", str(scenario_dir / "drift_halfspace_1d.json"),
                 "--traj", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")

"""Per-layer metrics: their extraction from the spans of traced passes.

Workload-level metrics come from the spans of the traced passes of the
workload itself (median over passes).  A metric the workload never exercises
(for instance ``cli.sweep_s.*`` on ``small_lambda``) is taken from one traced
pass of another workload; per-call costs come from the layer probe.  The
trace file names the source of every value.  Names and units are declared in
BENCHMARK.json.
"""

from __future__ import annotations

import statistics

ANALYSIS_FNS = ("kappa_tilde", "estimate_kappa", "truncated_hausdorff", "estimate_alpha",
                "lambda_sweep", "sup_diff")
CLI_COMMANDS = {"solve": "cli.solve", "diagnose": "cli.diagnose",
                "estimate_set": "cli.estimate-set"}


def _one_pass(tracer, recs):
    """Metrics one traced pass exercised, keyed by name."""
    runs = {r.run_id for r in recs}
    out = {}

    def spans(name):
        return [s for s in tracer.spans if s[3] == name and s[2] in runs]

    def seconds(name):
        return sum(s[5] - s[4] for s in spans(name))

    integ = spans("dynamics.integrate")
    if integ:
        evals = tracer.count_total("dynamics.rhs_evals", runs)
        out["dynamics.integrate_s"] = seconds("dynamics.integrate")
        out["dynamics.rhs_evals"] = evals
        out["dynamics.steps_accepted"] = tracer.count_total("dynamics.steps_accepted", runs)
        out["dynamics.steps_rejected"] = tracer.count_total("dynamics.steps_rejected", runs)
        if evals:
            out["dynamics.us_per_rhs_eval"] = 1e6 * out["dynamics.integrate_s"] / evals
    for fn in ANALYSIS_FNS:
        if spans(f"analysis.{fn}"):
            out[f"analysis.{fn}_s"] = seconds(f"analysis.{fn}")
    if spans("analysis.estimate_alpha"):
        out["analysis.alpha_samples_per_s"] = (
            tracer.count_total("analysis.alpha_samples", runs) / out["analysis.estimate_alpha_s"])
    calls = tracer.count_total("set_zoo.dykstra_calls", runs)
    if calls:
        out["set_zoo.dykstra_cycles_per_project"] = (
            tracer.count_total("set_zoo.dykstra_cycles", runs) / calls)

    parses = spans("scenario_io.parse_scenario")
    if parses:
        out["scenario_io.parse_ms"] = 1e3 * seconds("scenario_io.parse_scenario") / len(parses)
    if spans("scenario_io.write_trajectory_csv"):
        out["scenario_io.csv_write_s"] = seconds("scenario_io.write_trajectory_csv")
        out["scenario_io.csv_bytes"] = tracer.count_total("scenario_io.csv_bytes", runs)
    if spans("scenario_io.read_trajectory_csv"):
        out["scenario_io.csv_read_s"] = seconds("scenario_io.read_trajectory_csv")
    dumps = spans("scenario_io.dump_json")
    if dumps:
        out["scenario_io.report_write_ms"] = 1e3 * seconds("scenario_io.dump_json") / len(dumps)

    sweeps = spans("cli.sweep")
    if sweeps:
        excess = 0.0
        for s in sweeps:
            scenario = s[2].rsplit("/", 1)[-1]
            total = s[5] - s[4]
            out[f"cli.sweep_s.{scenario}"] = total
            inner = (tracer.children(s[0], "analysis.lambda_sweep")
                     + tracer.children(s[0], "scenario_io.write_trajectory_csv"))
            excess += total - sum(c[5] - c[4] for c in inner)
        out["cli.sweep_excess_s"] = excess
    for metric, span_name in CLI_COMMANDS.items():
        if spans(span_name):
            out[f"cli.{metric}_s"] = seconds(span_name)
    return out


def from_passes(tracer, passes):
    """Median over traced passes of each metric the passes exercised."""
    per_pass = [_one_pass(tracer, recs) for recs in passes]
    return {k: statistics.median(p[k] for p in per_pass if k in p)
            for k in {k for p in per_pass for k in p}}

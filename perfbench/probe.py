"""Layer probe: per-call costs of each layer's public functions on fixed inputs.

The probe times batches of calls into ``set_zoo``, ``operators``, ``hulls``
and ``dynamics.penalized_rhs`` for every set kind and operator kind, and
``analysis.lambda_sweep`` with one and two threads.  Each batch is one span
(``probe.<metric>``) whose ``calls`` count turns its duration into a per-call
cost.  The inputs depend only on the seed, and rotating every set by the same
seeded angle leaves the cost of each call unchanged.
"""

from __future__ import annotations

import math
import time

import numpy as np

import sweepsolve as sw

MIN_BATCH_S = 0.02      # repeat a batch until it has run this long


def _specs(theta):
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    half = sw.HalfSpaceSpec(normal=R @ [0.0, -1.0], beta0=0.2, drift=-0.5)
    ball = sw.BallSpec(center=R @ [0.1, -0.2], radius=1.0, velocity=R @ [0.5, 0.3])
    corner = sw.HalfSpaceIntersectionSpec((
        sw.HalfSpaceSpec(normal=R @ [-1.0, 0.0], drift=-1.0),
        sw.HalfSpaceSpec(normal=R @ [0.0, -1.0], drift=-1.0)))
    return {
        "half_space": half,
        "ball": ball,
        "box": sw.BoxSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], upper_velocity=[0.5, 0.5]),
        "wedge": sw.WedgeSpec(apex=[0.0, 0.0], apex_velocity=[0.0, 1.0]),
        "intersection": corner,
        "union": sw.UnionSpec((sw.BallSpec(center=R @ [-2.5, 0.0], radius=1.0), corner)),
    }


def _batch(tracer, name, calls_per_rep, fn, tiny):
    """Run ``fn`` (one rep = calls_per_rep calls) inside one span; return s per call."""
    span = tracer.open_span(f"probe.{name}")
    reps = 0
    start = time.perf_counter()
    while True:
        fn()
        reps += 1
        if tiny or time.perf_counter() - start >= MIN_BATCH_S:
            break
    tracer.close_span(span)
    tracer.count("calls", reps * calls_per_rep, span)
    return (span[5] - span[4]) / (reps * calls_per_rep)


def run(tracer, seed: int, root, tiny: bool) -> dict:
    """Measure every probe metric; returns {metric name: value}."""
    tracer.run_id = "probe"
    rng = np.random.default_rng(seed)
    n_pts = 50 if tiny else 400
    Z = 3.0 * rng.standard_normal((n_pts, 2))
    ts = rng.uniform(0.0, 1.0, n_pts)
    X = 0.5 * rng.standard_normal((n_pts, 2))
    out = {}

    for kind, spec in _specs(rng.uniform(0.0, 2.0 * math.pi)).items():
        inst = sw.instantiate(spec, 0.5, X[0])
        pre = f"set_zoo.{kind}"
        out[f"{pre}.instantiate_us"] = 1e6 * _batch(
            tracer, f"{pre}.instantiate", n_pts,
            lambda: [sw.instantiate(spec, t, x) for t, x in zip(ts, X)], tiny)
        out[f"{pre}.distance_us"] = 1e6 * _batch(
            tracer, f"{pre}.distance", n_pts, lambda: [inst.distance(z) for z in Z], tiny)
        out[f"{pre}.project_us"] = 1e6 * _batch(
            tracer, f"{pre}.project", n_pts, lambda: [inst.project(z) for z in Z], tiny)
        out[f"{pre}.distance_many_us_per_pt"] = 1e6 * _batch(
            tracer, f"{pre}.distance_many", n_pts, lambda: inst.distance_many(Z), tiny)

        scenario = sw.Scenario(n=2, T=1.0, x0=X[0], operator=sw.IdentityOperator(),
                               moving_set=spec, lambdas=(0.1,))
        out[f"dynamics.{kind}.rhs_us"] = 1e6 * _batch(
            tracer, f"dynamics.{kind}.rhs", n_pts,
            lambda: [sw.penalized_rhs(scenario, 0.1, t, x) for t, x in zip(ts, X)], tiny)

    ops = {"identity": sw.IdentityOperator(),
           "scaled_identity": sw.ScaledIdentityOperator(2.0),
           "linear_spd": sw.LinearSPDOperator([[2.0, 0.5], [0.5, 1.0]])}
    for kind, op in ops.items():
        out[f"operators.{kind}.apply_us"] = 1e6 * _batch(
            tracer, f"operators.{kind}.apply", n_pts, lambda: [op.apply(x) for x in X], tiny)

    triples = rng.standard_normal((n_pts, 3, 2))
    out["hulls.min_norm_point_us"] = 1e6 * _batch(
        tracer, "hulls.min_norm_point", n_pts,
        lambda: [sw.min_norm_point(P) for P in triples], tiny)

    # --jobs decision: the same sweeps with one and with two threads
    names = ("rotating_halfplane",) if tiny else ("moving_ball_fast_operator",
                                                  "corner_push_dykstra")
    # (kappa_tilde only feeds the verdicts, so a coarse sampler keeps it cheap)
    sweeps = []
    for name in names:
        scenario = sw.load_scenario(root / "scenarios" / f"{name}.json")
        sweeps.append((scenario, sw.kappa_tilde(scenario, sampler=sw.SamplerConfig(count=256))))
    for jobs in (1, 2):
        total = 0.0
        for scenario, kt in sweeps:
            span = tracer.open_span(f"probe.analysis.lambda_sweep_jobs{jobs}")
            sw.lambda_sweep(scenario, kt=kt, seed=seed, jobs=jobs)
            tracer.close_span(span)
            total += span[5] - span[4]
        out[f"analysis.lambda_sweep_jobs{jobs}_s"] = total
    return out

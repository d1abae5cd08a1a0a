"""Command-line front end: solve, sweep, diagnose, estimate-set.

Every argument is checked by its argparse ``type``, so a bad value is a one-line
``UsageError`` before any work starts.  The scenario file is read once; its text is
both hashed and parsed.  ``sweep`` writes each trajectory CSV from the trajectory
``lambda_sweep`` integrated and diagnosed, so every lambda is integrated exactly once.
``solve`` and ``diagnose`` differ only in where their trajectory comes from: both
certify it in ``_certify``, which checks the penalty gate before it asks for one.
One parser serves a process.

Each subcommand writes one JSON artifact (``summary.json``, ``report.json``,
``diagnose.json`` or ``set_estimates.json``), and every artifact starts from
the same header: ``subcommand``, ``scenario_hash`` (SHA-256 of the scenario
text) and ``seed``.

Exit codes: 0 when every requested check passes, 2 when a bound check fails,
1 on any error (arguments, parse, validation, I/O, integration); argparse's
usage errors are ``UsageError``s too, not its exit 2.  Artifacts
written under --out are byte-deterministic for a fixed (scenario, seed);
timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import analysis
from .analysis import SamplerConfig
from .dynamics import integrate
from .errors import DimensionMismatch, GridMismatch, SweepSolveError, UsageError
from .scenario_io import (
    check_penalty_gate,
    diagnostics_to_dict,
    dump_json,
    parse_scenario,
    read_scenario_text,
    read_trajectory_csv,
    report_to_dict,
    scenario_hash,
    write_trajectory_csv,
)
from .set_zoo import instantiate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_FAILED = 2


def _checked(convert, ok, want):
    """An argparse type: ``convert(text)`` when ``ok`` holds on it, else "must be ``want``"."""
    def check(text):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
    return check


_positive = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _radii(text):
    """--r's nonempty comma list of radii; blank items are skipped."""
    if radii := [_positive(item) for item in text.split(",") if item.strip()]:
        return radii
    raise argparse.ArgumentTypeError("must list at least one radius")


def _common_flags(sub):
    sub.add_argument("--scenario", required=True, help="path to a scenario JSON document")
    sub.add_argument("--out", default=None, help="output directory (default: scenario output.dir)")
    sub.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "an integer >= 0"), default=0,
                     help="seed for sampled estimators")


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # argparse would print usage and exit 2
        raise UsageError(message)


@functools.cache        # on first use, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sweepsolve",
        description="Penalized solver and bound certification for degenerate "
                    "state-dependent sweeping dynamics")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="integrate one penalty parameter, write CSV + summary")
    _common_flags(p)
    p.add_argument("--lam", type=_positive, default=None,
                   help="penalty parameter (default: first entry of lambdas)")

    p = subs.add_parser("sweep", help="integrate every lambda, write CSVs + diagnostics report")
    _common_flags(p)

    p = subs.add_parser("diagnose", help="re-check bounds on an existing trajectory CSV")
    _common_flags(p)
    p.add_argument("--traj", required=True, help="trajectory CSV written by solve/sweep")
    p.add_argument("--lam", type=_positive, default=None,
                   help="penalty parameter (default: read from the CSV header)")

    p = subs.add_parser("estimate-set", help="estimate alpha, kappa_r, L and Hausdorff gaps")
    _common_flags(p)
    p.add_argument("--r", type=_radii, default="1,10", help="comma list of truncation radii")
    p.add_argument("--samples", type=_count, default=4096, help="Hausdorff sampler size")
    p.add_argument("--alpha-samples", type=_count, default=10000, help="tube samples for alpha")

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        code = _dispatch(args)
    except SweepSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"[sweepsolve] {args.command} finished in {time.perf_counter() - started:.2f}s",
          file=sys.stderr)
    return code


def _dispatch(args) -> int:
    """Run one subcommand and write its JSON artifact under the shared header."""
    text = read_scenario_text(args.scenario)
    scenario = parse_scenario(text, source=str(args.scenario))
    out_dir = Path(args.out if args.out is not None else scenario.output.dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    run, artifact = _COMMANDS[args.command]
    payload, stdout, code = run(args, scenario, out_dir)
    dump_json(out_dir / artifact, {"subcommand": args.command, "scenario_hash": scenario_hash(text),
                                   "seed": args.seed, **payload})
    print(stdout)
    return code


def _float_text(v: float) -> str:
    """v as %g when that reads back as v, else its repr: one text per lambda or radius."""
    text = format(v, "g")
    return text if float(text) == v else repr(float(v))   # a NumPy float's repr names its type


def _lam_tag(lam: float) -> str:
    return _float_text(lam).replace("-", "m")


def _certify(scenario, lam, trajectory, csv_ref):
    """(verdict payload, exit code) of ``trajectory()``, asked for only once lam
    passes the penalty gate; ``csv_ref`` names the trajectory's CSV in the payload."""
    check_penalty_gate(scenario, [lam])
    traj = trajectory()
    kt = analysis.kappa_tilde(scenario)
    diag = analysis.diagnose_trajectory(traj, scenario, kt.value)
    payload = {"kappa_tilde": kt.value, "trajectory_csv": csv_ref, **diagnostics_to_dict(diag)}
    return payload, EXIT_OK if diag.bound_satisfied and diag.lipschitz_ok else EXIT_BOUND_FAILED


def _run_solve(args, scenario, out_dir):
    lam = args.lam if args.lam is not None else scenario.lambdas[0]
    csv_name = f"trajectory_lam{_lam_tag(lam)}.csv"

    def trajectory():
        traj = integrate(scenario, lam)
        write_trajectory_csv(out_dir / csv_name, traj)
        return traj
    payload, code = _certify(scenario, lam, trajectory, csv_name)
    return payload, (f"lambda={_float_text(lam)} phi_max={payload['phi_max']:.6g} "
                     f"bound={payload['phi_bound']:.6g} ok={payload['bound_satisfied']}"), code


def _run_diagnose(args, scenario, out_dir):
    traj = read_trajectory_csv(args.traj)
    if traj.states.shape[1] != scenario.n:
        raise DimensionMismatch(f"{args.traj}: trajectory has dimension {traj.states.shape[1]}, "
                                f"scenario has {scenario.n}")
    # a partial trajectory certifies nothing: span [0, T] (within sup_diff's 1e-12) from x0
    t0, tN, x, x0 = traj.times[0], traj.horizon, traj.states[0].tolist(), scenario.x0.tolist()
    if t0 != 0.0 or abs(tN - scenario.T) > 1e-12 or x != x0:
        raise GridMismatch(f"{args.traj}: trajectory covers [{t0:.17g}, {tN:.17g}] from x = {x}, "
                           f"scenario needs [0, {scenario.T:.17g}] from x0 = {x0}")
    lam = args.lam if args.lam is not None else traj.lam
    if lam is None:
        raise SweepSolveError("trajectory CSV carries no lambda; pass --lam")
    payload, code = _certify(scenario, lam, lambda: replace(traj, lam=lam), str(args.traj))
    return payload, (f"lambda={_float_text(lam)} phi_max={payload['phi_max']:.6g} "
                     f"bound_ok={payload['bound_satisfied']} "
                     f"lipschitz_ok={payload['lipschitz_ok']}"), code


def _run_sweep(args, scenario, out_dir):
    report = analysis.lambda_sweep(scenario, grid_points=scenario.output.grid_points,
                                   seed=args.seed)
    for lam, traj in report.trajectories.items():
        write_trajectory_csv(out_dir / f"trajectory_lam{_lam_tag(lam)}.csv", traj)
    stdout = "\n".join(f"lambda={_float_text(d.lam)} status={d.status} worst_ratio={d.worst_ratio:.4g} "
                       f"bound_ok={d.bound_satisfied}" for d in report.per_lambda)
    if any(d.status != "ok" for d in report.per_lambda):
        code = EXIT_ERROR
    else:
        code = EXIT_OK if report.all_ok else EXIT_BOUND_FAILED
    return report_to_dict(report), stdout, code


def _run_estimate_set(args, scenario, out_dir):
    sampler = SamplerConfig(count=args.samples)
    spec = scenario.moving_set
    t_pairs = analysis.default_time_pairs(scenario.T)
    x_pairs = analysis.default_state_pairs(scenario.x0) if spec.state_lipschitz != 0.0 else []

    kappa_estimates = {}
    L_hat = 0.0
    for r in args.r:
        k_r, L_r = analysis.estimate_kappa(spec, r, t_pairs, x_pairs, sampler,
                                           x_ref=scenario.x0)
        kappa_estimates[_float_text(r)] = k_r
        L_hat = max(L_hat, L_r)

    rho = scenario.rho_assumed if math.isfinite(scenario.rho_assumed) else 1.0
    inst0 = instantiate(spec, 0.0, scenario.x0)
    alpha_estimate = analysis.estimate_alpha(inst0, rho, args.alpha_samples, args.seed)

    dt = scenario.T / 10.0
    inst_b = instantiate(spec, dt, scenario.x0)
    hausdorff_samples = [
        {"r": r, "dt": dt, "value": analysis.truncated_hausdorff(inst0, inst_b, r, sampler)}
        for r in args.r]

    payload = {
        "sampler": {"kind": "grid", "count": sampler.count},
        "alpha_estimate": alpha_estimate,
        "alpha_tube_rho": rho,
        "alpha_samples": args.alpha_samples,
        "kappa_estimates": kappa_estimates,
        "L_hat": L_hat,
        "hausdorff_samples": hausdorff_samples,
    }
    return payload, (f"alpha_estimate={alpha_estimate:.6g} L_hat={L_hat:.6g} "
                     f"kappa={kappa_estimates}"), EXIT_OK


_COMMANDS = {       # subcommand -> (runner, JSON artifact under --out)
    "solve": (_run_solve, "summary.json"),
    "sweep": (_run_sweep, "report.json"),
    "diagnose": (_run_diagnose, "diagnose.json"),
    "estimate-set": (_run_estimate_set, "set_estimates.json"),
}


if __name__ == "__main__":
    sys.exit(main())

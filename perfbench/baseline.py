"""Regenerate the ROADMAP baseline table from the benchmark's own code.

    python3 perfbench/baseline.py

Prints a Markdown table, then one JSON line with the same numbers:

* CLI ``sweep`` wall time and exit code per corpus scenario (one untraced
  ``corpus_sweep`` pass);
* ``kappa_tilde`` on ``corner_push_dykstra``;
* microseconds per ``penalized_rhs`` evaluation for each set kind, and
  ``lambda_sweep`` with ``--jobs`` 1 and 2 (the layer probe);
* explicit RK4 on the drift half-line at lambda = 5e-4 (T = 1, unit speed);
* the line count of ``src/``, recorded next to the timings and not gated.

Run it from the root of a checkout; it reads and writes nothing outside it.
"""

from __future__ import annotations

import json
import platform
import time

import run

SEED = 1


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((run.ROOT / "src").rglob("*.py")))


def main():
    run.import_program()
    import numpy as np
    import probe
    import sweepsolve as sw
    import workloads
    from spans import Tracer

    wl, _ = run.set_up("corpus_sweep", SEED, False)
    recs = run.Runner(wl).run_pass()
    sweep = {r.key.split("/", 1)[1]: {"s": r.wall, "exit": r.code} for r in recs}

    corner = sw.load_scenario(run.ROOT / "scenarios" / "corner_push_dykstra.json")
    start = time.perf_counter()
    sw.kappa_tilde(corner)
    kappa_s = time.perf_counter() - start

    layer = probe.run(Tracer("baseline"), SEED, run.ROOT, False)

    lam = 5e-4
    drift = sw.Scenario(n=1, T=1.0, x0=[0.0], operator=sw.IdentityOperator(),
                        moving_set=sw.HalfSpaceSpec(normal=[-1.0], drift=-1.0), lambdas=(lam,))
    start = time.perf_counter()
    traj = sw.integrate(drift, lam)
    rk4_s = time.perf_counter() - start
    exact = traj.times - lam * (1.0 - np.exp(-traj.times / lam))
    rk4_err = float(abs(traj.states[:, 0] - exact).max())

    record = {
        "python": platform.python_version(),
        "sweep_s": sweep,
        "corpus_sweep_s": sum(v["s"] for v in sweep.values()),
        "kappa_tilde_corner_push_dykstra_s": kappa_s,
        "rhs_us": {k.split(".")[1]: v for k, v in layer.items() if k.endswith(".rhs_us")},
        "lambda_sweep_jobs1_s": layer["analysis.lambda_sweep_jobs1_s"],
        "lambda_sweep_jobs2_s": layer["analysis.lambda_sweep_jobs2_s"],
        "rk4_lam5e-4": {"steps": traj.stats.n_accepted, "rhs_evals": traj.stats.rhs_evals,
                        "s": rk4_s, "max_error": rk4_err},
        "src_lines": src_lines(),
    }

    print("| measurement | value |")
    print("|---|---|")
    for name in workloads.CORPUS:
        v = sweep[name]
        print(f"| `sweep` {name} | {v['s']:.3f} s (exit {v['exit']}) |")
    print(f"| `sweep` whole corpus | {record['corpus_sweep_s']:.2f} s |")
    print(f"| `kappa_tilde` corner_push_dykstra | {kappa_s:.3f} s |")
    for k, v in record["rhs_us"].items():
        print(f"| `penalized_rhs` {k} | {v:.1f} us |")
    print(f"| `lambda_sweep` --jobs 1 / 2 (moving_ball_fast_operator + corner_push_dykstra) "
          f"| {record['lambda_sweep_jobs1_s']:.3f} s / {record['lambda_sweep_jobs2_s']:.3f} s |")
    r = record["rk4_lam5e-4"]
    print(f"| RK4 drift half-line, lambda = 5e-4 | {r['steps']} steps, {r['s']:.2f} s, "
          f"max error {r['max_error']:.1e} |")
    print(f"| `src/` lines (recorded, not gated) | {record['src_lines']} |")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

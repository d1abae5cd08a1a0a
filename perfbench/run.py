"""sweepsolve benchmark: one closed-loop client driving ``sweepsolve.cli.main``.

    python3 perfbench/run.py --workload corpus_sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (it imports ``src/sweepsolve``), in one
process with no threads of its own.  Each pass runs the workload's operations
once, in order; passes repeat until ``--seconds`` have elapsed.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics from traced passes and writes
the trace to ``.perfbench_work/<workload>/trace.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import betainc

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
MIN_PASSES = 3          # untraced passes per run, at least, so each operation's
                        # median rejects one pass that hit a burst of host load
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sweepsolve; "
                "print(time.perf_counter() - t)")


@dataclass
class OpRecord:
    key: str
    run_id: str
    code: object          # exit code, or None when an exception escaped
    wall: float
    cpu: float
    problems: list
    digest: str

    @property
    def ok(self):
        return self.code == 0 and not self.problems

    @property
    def failed(self):
        """Errors and wrong outputs; exit 2 is a completed "bound failed" verdict."""
        return self.code not in (0, 2) or bool(self.problems)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test; numbers are not comparable")
    return p.parse_args(argv)


def import_program():
    """Import sweepsolve from this checkout's src/, or exit if it is not there."""
    src = ROOT / "src"
    if not (src / "sweepsolve" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sweepsolve sources under {src}")
    sys.path.insert(0, str(src))
    import sweepsolve
    if Path(sweepsolve.__file__).resolve().parent != (src / "sweepsolve").resolve():
        raise SystemExit(f"perfbench: imported sweepsolve from {sweepsolve.__file__}")


def import_seconds():
    """Time of `import sweepsolve` in a fresh interpreter.

    An interpreter imports a package once, so repeated set-up needs new ones.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(path)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def run_op(op, run_id, tracer):
    from sweepsolve import cli

    shutil.rmtree(op.out_dir, ignore_errors=True)
    gc.collect()     # so no operation pays for collecting garbage another left
    if tracer is not None:
        tracer.run_id = run_id
    sink = io.StringIO()
    problems = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:   # an escaped exception fails this operation, not the run
        code = None
        problems.append(traceback.format_exc(limit=3))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    # outside the timed region
    if code not in (0, 2, None):
        problems.append(f"exit {code}: {sink.getvalue()[-300:]}")
    elif code is not None and op.check is not None:
        try:
            problems += op.check(op)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"output check: {type(exc).__name__}: {exc}")
    return OpRecord(op.key, run_id, code, wall, cpu, problems, digest_dir(op.out_dir))


class Runner:
    """Runs passes of one workload and checks artifacts are stable across them."""

    def __init__(self, wl):
        self.wl = wl
        self.first_digest = {}
        self.records = []        # every OpRecord, all passes
        self.passes = 0

    def run_pass(self, tracer=None):
        self.passes += 1
        recs = []
        for op in self.wl.ops:
            rec = run_op(op, f"{self.wl.name}/p{self.passes}/{op.key}", tracer)
            ref = self.first_digest.setdefault(op.key, rec.digest)
            if rec.digest != ref:
                rec.problems.append("artifacts differ from the first pass for this seed")
            recs.append(rec)
        self.records += recs
        return recs


def hd_median(values):
    """Harrell-Davis median: a Beta-weighted average of all order statistics.

    Unlike the sample median it does not jump when two values near the middle
    swap places, which matters with few samples on a noisy host.
    """
    x = np.sort(np.asarray(values, dtype=float))
    a = (x.size + 1) / 2.0
    return float(np.diff(betainc(a, a, np.arange(x.size + 1) / x.size)) @ x)


def pass_estimate(passes, attr):
    """Per-operation medians over passes of ``attr`` ("wall" or "cpu")."""
    return [hd_median([getattr(recs[i], attr) for recs in passes])
            for i in range(len(passes[0]))]


def report_problems(records):
    for r in records:
        for p in r.problems:
            print(f"[perfbench] {r.run_id}: {p}", file=sys.stderr)


def emit(records, metrics):
    failed = sum(r.failed for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def set_up(name, seed, tiny):
    """One set-up: `import sweepsolve` in a fresh interpreter, then generating
    and parsing the workload's scenarios in this process.

    Returns the workload and the seconds both took.  Generation is
    deterministic, so a repeated set-up rewrites the same files.
    """
    import workloads

    import_s = import_seconds()
    start = time.perf_counter()
    wl = workloads.build(name, seed, ROOT, WORK / name, tiny)
    workloads.parse_all(wl)
    return wl, import_s + time.perf_counter() - start


def warm_up(args):
    """One untimed pass of the workload at its tiny size.

    It loads what the program imports or caches on first use, so the first
    timed pass does not pay for it.  Its records still count for correctness.
    """
    import workloads

    wl = workloads.build(args.workload, args.seed, ROOT, WORK / args.workload / "warm_up",
                         tiny=True)
    workloads.parse_all(wl)
    return Runner(wl).run_pass()


def untraced(runner, args, first_setup_s):
    """Passes until their time reaches ``--seconds`` and there are at least
    MIN_PASSES of them, with a set-up after each of the first MIN_PASSES.

    Spreading the set-ups over the run keeps a burst of host load from
    hitting all of them; capping them keeps the run short.
    """
    passes, setups = [], [first_setup_s]
    spent = 0.0
    while len(passes) < MIN_PASSES or spent < args.seconds:
        start = time.perf_counter()
        passes.append(runner.run_pass())
        spent += time.perf_counter() - start
        if len(passes) <= MIN_PASSES:
            setups.append(set_up(args.workload, args.seed, args.tiny)[1])
    ops = [r for recs in passes for r in recs]
    values = {
        "setup_s": hd_median(setups),
        "wall_s": sum(pass_estimate(passes, "wall")),
        "cpu_s": sum(pass_estimate(passes, "cpu")),
        "op_s_p50": hd_median([r.wall for r in ops]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(r.ok for r in ops) / len(ops),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def traced(runner, args):
    import layers
    import probe
    import workloads
    from spans import Tracer

    tracer = Tracer(f"{args.workload}/seed{args.seed}")
    plain, traced_passes = [], []
    start = time.perf_counter()
    while not traced_passes or time.perf_counter() - start < args.seconds:
        plain.append(runner.run_pass())
        with tracer:
            traced_passes.append(runner.run_pass(tracer))
    values = layers.from_passes(tracer, traced_passes)
    sources = dict.fromkeys(values, args.workload)
    declared = [m["name"] for m in SPEC["per_layer"]]

    def missing():
        return [n for n in declared if n not in values]

    # layers this workload does not exercise: one traced pass of the others
    extra = []
    for other in workloads.WORKLOADS:
        if other == args.workload or not missing():
            continue
        wl = workloads.build(other, args.seed, ROOT, WORK / args.workload / other, args.tiny)
        workloads.parse_all(wl)
        other_runner = Runner(wl)
        with tracer:
            recs = other_runner.run_pass(tracer)
        extra += recs
        for k, v in layers.from_passes(tracer, [recs]).items():
            if k not in values:
                values[k], sources[k] = v, other

    for k, v in probe.run(tracer, args.seed, ROOT, args.tiny).items():
        values[k], sources[k] = v, "probe"
    values["trace.overhead_s"] = (sum(pass_estimate(traced_passes, "wall"))
                                  - sum(pass_estimate(plain, "wall")))
    sources["trace.overhead_s"] = args.workload

    tracer.dump(WORK / args.workload / "trace.json", {
        "workload": args.workload, "seed": args.seed,
        "untraced_pass_wall_s": [sum(r.wall for r in p) for p in plain],
        "traced_pass_wall_s": [sum(r.wall for r in p) for p in traced_passes],
        "metrics": {k: {"value": v, "source": sources[k]} for k, v in sorted(values.items())},
    })
    if missing() and not args.tiny:
        print(f"[perfbench] per-layer metrics not measured: {missing()}", file=sys.stderr)
    return runner.records + extra, {
        k: {"value": v, "unit": UNITS[k]} for k, v in sorted(values.items())}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    wl, setup_s = set_up(args.workload, args.seed, args.tiny)
    warm = warm_up(args)
    runner = Runner(wl)
    if args.trace:
        records, metrics = traced(runner, args)
    else:
        metrics = untraced(runner, args, setup_s)
        records = runner.records
    records = warm + records
    report_problems(records)
    emit(records, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its tiny size, untraced and traced, and asserts that
the result line has the agreed shape, that every metric name printed is
declared in BENCHMARK.json and uses only ``[A-Za-z0-9_.-]``, and that an
untraced run prints every end-to-end metric.
It also checks that the benchmark fails, without printing a result, in a
directory holding only BENCHMARK.json and perfbench/.  Takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def bench_run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, declared, e2e, trace, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {proc.stderr[-2000:]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    for name, m in result["metrics"].items():
        assert NAME.match(name) and len(name) <= 64, f"{label}: bad metric name {name!r}"
        assert name in declared, f"{label}: {name} is not declared in BENCHMARK.json"
        assert isinstance(m["value"], (int, float)), f"{label}: {name} = {m['value']!r}"
    if not trace:
        assert set(result["metrics"]) == e2e, f"{label}: end-to-end set differs"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{w} trace={trace}"
            check_result(bench_run(ROOT, w, trace), layer if trace else e2e, e2e,
                         trace, label)
            print(f"ok  {label}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run(bare, spec["workloads"][0]["name"], 0)
    assert proc.returncode != 0 and not proc.stdout.strip(), "bare directory run succeeded"
    shutil.rmtree(bare)
    print("ok  bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

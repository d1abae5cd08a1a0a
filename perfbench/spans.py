"""Benchmark-side tracing of calls into the sweepsolve layers.

While a :class:`Tracer` is installed, public functions of the layer modules
are replaced by wrappers.  Nothing inside the package changes; the wrappers
are removed again when the ``with`` block ends.

Coarse calls (CLI commands, scenario I/O, analysis estimators, ``integrate``)
become spans ``(span_id, parent_id, run_id, name, start, end)``.  Calls that
run up to hundreds of thousands of times per operation are not timed: a
timing wrapper would add its own cost to every enclosing span.  Single-point
geometry, operator images, ``penalized_rhs``, ``min_norm_point`` and
``distance_many`` are measured by the layer probe instead.

Counts taken from returned objects (``Trajectory.stats``, the cycles
``dykstra_project`` returns, sample counts, file sizes) are summed per
enclosing span.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from sweepsolve import analysis, cli, dynamics, scenario_io, set_zoo

# (module, function name, "coarse" for a span or "count" for counts only)
_FUNCTIONS = [
    (cli, "main", "coarse"),
    (scenario_io, "load_scenario", "coarse"),
    (scenario_io, "parse_scenario", "coarse"),
    (scenario_io, "validate_scenario", "coarse"),
    (scenario_io, "write_trajectory_csv", "coarse"),
    (scenario_io, "read_trajectory_csv", "coarse"),
    (scenario_io, "dump_json", "coarse"),
    (analysis, "kappa_tilde", "coarse"),
    (analysis, "estimate_kappa", "coarse"),
    (analysis, "truncated_hausdorff", "coarse"),
    (analysis, "estimate_alpha", "coarse"),
    (analysis, "lambda_sweep", "coarse"),
    (analysis, "sup_diff", "coarse"),
    (analysis, "diagnose_trajectory", "coarse"),
    (dynamics, "integrate", "coarse"),
    (dynamics, "catching_up", "coarse"),
    (set_zoo, "dykstra_project", "count"),
]


def _span_name(module, name, args):
    """Span name for a call; a CLI span is named after its subcommand."""
    if module is cli:
        argv = args[0] if args else None
        return f"cli.{argv[0] if argv else 'main'}"
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    """In-memory store of spans and counts for one run."""

    def __init__(self, run_label: str):
        self.run_label = run_label
        self.run_id = None            # set per operation by the runner
        self.spans = []               # [span_id, parent_id, run_id, name, start, end]
        self.counts = defaultdict(float)   # (name, span_id) -> value
        self._stack = []
        self._saved = []

    # -- recording --------------------------------------------------------
    def open_span(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self.run_id, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close_span(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value, span):
        self.counts[(name, span[0])] += value

    def _count_dykstra(self, fn):
        """Count calls and returned cycles against the enclosing span, untimed."""
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            counts[("set_zoo.dykstra_calls", parent)] += 1
            counts[("set_zoo.dykstra_cycles", parent)] += result[1]
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _coarse(self, module, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open_span(_span_name(module, name, args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(span)
            tracer._count_result(span, name, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_result(self, span, name, args, kwargs, result):
        if name == "integrate":
            st = result.stats
            self.count("dynamics.rhs_evals", st.rhs_evals, span)
            self.count("dynamics.steps_accepted", st.n_accepted, span)
            self.count("dynamics.steps_rejected", st.n_rejected, span)
        elif name == "write_trajectory_csv":
            path = kwargs.get("path", args[0] if args else None)
            self.count("scenario_io.csv_bytes", os.path.getsize(path), span)
        elif name == "estimate_alpha":
            samples = kwargs.get("sample_count", args[2] if len(args) > 2 else None)
            self.count("analysis.alpha_samples", samples, span)

    # -- installation -----------------------------------------------------
    def __enter__(self):
        for module, name, grain in _FUNCTIONS:
            orig = getattr(module, name)
            if grain == "coarse":
                wrapped = self._coarse(module, name, orig)
            else:
                wrapped = self._count_dykstra(orig)
            self._rebind(orig, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    def _patch_attr(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapped):
        """Point every sweepsolve module attribute bound to ``orig`` at ``wrapped``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sweepsolve" or mod_name.startswith("sweepsolve.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch_attr(mod, attr, wrapped)

    # -- queries ----------------------------------------------------------
    def count_total(self, name, run_ids=None):
        return sum(v for (n, parent), v in self.counts.items()
                   if n == name and self._in_runs(parent, run_ids))

    def _in_runs(self, span_id, run_ids):
        return run_ids is None or (span_id is not None and self.spans[span_id][2] in run_ids)

    def children(self, span_id, name):
        return [s for s in self.spans if s[1] == span_id and s[3] == name]

    def dump(self, path, extra):
        """Write the trace as one JSON document (see perfbench/README.md)."""
        doc = {
            "run": self.run_label,
            "span_fields": ["span_id", "parent_id", "run_id", "name", "start_s", "end_s"],
            "spans": self.spans,
            "counts": [[n, p, v] for (n, p), v in sorted(self.counts.items(), key=str)],
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

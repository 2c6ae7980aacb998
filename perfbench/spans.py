"""In-memory span tracing of the stochsym pipeline, applied from outside.

`instrument` replaces module attributes (and one method) of an imported
stochsym with wrappers that record a span per call: name, start, end and the
index of the enclosing span.  The package source is not edited.  A few
wrappers also add counters read off the wrapped call's arguments or result
(kernel rows, bytes written, trials).  `layer_metrics` turns the spans and
counters into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter, defaultdict

STAGES = ("verify", "compose", "abstract", "synthesize", "bound", "simulate")


class Tracer:
    """Spans kept as [name, parent, start, end] lists; counters by name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(counts, args, result)` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                with self._lock:
                    after(self.counts, args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _count_x_cmp(counts, args, x_cmp):
    counts["composition.x_cmp_bytes"] += x_cmp.nbytes


def _count_deterministic(counts, args, fa):
    # one successor per (state, input, internal) row
    counts["abstraction.kernel_rows"] += fa.successors.size
    counts["abstraction.kernel_nnz"] += fa.successors.size


def _count_stochastic(counts, args, fa):
    counts["abstraction.kernel_rows"] += fa.kernel.shape[0]
    counts["abstraction.kernel_nnz"] += fa.kernel.nnz


def _count_export(counts, args, _):
    counts["abstraction.export_bytes"] += _file_bytes(args[1], args[2])


def _count_trials(counts, args, result):
    summary = result.summary
    counts["runtime.trials"] += summary.n_trials
    if summary.convergence:
        counts["runtime.check_trials"] += summary.convergence["check_trials"]


def _count_trajectories(counts, args, _):
    counts["runtime.trajectories_bytes"] += _file_bytes(args[1])


def instrument(tracer: Tracer, pkg) -> None:
    """Wrap the layer entry points of the imported stochsym package `pkg`.

    Each wrapper is installed on the attribute the callers look up at call
    time: `cli` calls other layers through their modules, `certificates`
    calls its checks through module globals (so the re-checks inside
    `derive_constants` are counted too), `runtime.cosimulate` builds its
    `_Network` through a module global, and grid lookups go through the
    `UniformGrid.locate_many` method.
    """
    cli = pkg.cli

    def patch(mod, attr, after=None):
        layer = mod.__name__.rsplit(".", 1)[-1]
        setattr(mod, attr, tracer.wrap(f"{layer}.{attr}",
                                       getattr(mod, attr), after))

    patch(cli, "load_config")
    for stage in STAGES:
        cli._STAGE_FUNCS[stage] = tracer.wrap(f"cli.stage.{stage}",
                                              cli._STAGE_FUNCS[stage])
    patch(pkg.model, "check_well_posed")
    patch(pkg.model, "validate_system")
    for attr in ("check_lyapunov", "check_geometric", "check_dissipativity_lmi",
                 "derive_constants"):
        patch(pkg.certificates, attr)
    patch(pkg.composition, "build_x_cmp", _count_x_cmp)
    for attr in ("check_compositional_lmi", "gershgorin_fast_check", "compose_ssf"):
        patch(pkg.composition, attr)
    patch(pkg.bounds, "closeness_bound")
    abst = pkg.abstraction
    patch(abst, "build_deterministic", _count_deterministic)
    patch(abst, "build_stochastic", _count_stochastic)
    patch(abst, "export_abstraction", _count_export)
    abst.UniformGrid.locate_many = tracer.wrap("abstraction.locate_many",
                                               abst.UniformGrid.locate_many)
    for attr in ("safety_fixpoint", "safety_value_iteration", "write_controller"):
        patch(pkg.synthesis, attr)
    patch(pkg.runtime, "cosimulate", _count_trials)
    pkg.runtime._Network = tracer.wrap("runtime.network_build", pkg.runtime._Network)
    patch(pkg.runtime, "write_trajectories_csv", _count_trajectories)


def layer_metrics(tracer: Tracer, pipeline_s: float) -> dict:
    """Per-layer metrics: total and self seconds per span name, call counts, counters."""
    total: dict = defaultdict(float)
    calls: Counter = Counter()
    children = [0.0] * len(tracer.spans)
    for name, parent, start, end in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            children[parent] += end - start
    self_time: dict = defaultdict(float)
    for (name, _, start, end), inner in zip(tracer.spans, children):
        self_time[name] += end - start - inner

    m = {"cli.load_config_s": total["cli.load_config"]}
    for stage in STAGES:
        m[f"cli.stage.{stage}_s"] = total[f"cli.stage.{stage}"]
        m[f"cli.stage.{stage}.self_s"] = self_time[f"cli.stage.{stage}"]
    m["model.check_well_posed_s"] = total["model.check_well_posed"]
    m["model.check_well_posed.calls"] = calls["model.check_well_posed"]
    m["model.validate_system.calls"] = calls["model.validate_system"]
    checks = ("check_lyapunov", "check_geometric", "check_dissipativity_lmi")
    for c in checks:
        m[f"certificates.{c}.calls"] = calls[f"certificates.{c}"]
    m["certificates.checks_s"] = sum(total[f"certificates.{c}"] for c in checks)
    m["certificates.derive_constants_s"] = total["certificates.derive_constants"]
    for name in ("build_x_cmp", "check_compositional_lmi", "gershgorin_fast_check",
                 "compose_ssf"):
        m[f"composition.{name}_s"] = total[f"composition.{name}"]
    m["bounds.closeness_bound_s"] = total["bounds.closeness_bound"]
    for name in ("build_deterministic", "build_stochastic", "export_abstraction",
                 "locate_many"):
        m[f"abstraction.{name}_s"] = total[f"abstraction.{name}"]
    m["abstraction.locate_many.calls"] = calls["abstraction.locate_many"]
    build_s = m["abstraction.build_deterministic_s"] + m["abstraction.build_stochastic_s"]
    rows = tracer.counts["abstraction.kernel_rows"]
    m["abstraction.kernel_rows_per_s"] = rows / build_s if build_s > 0 else 0.0
    for name in ("safety_fixpoint", "safety_value_iteration", "write_controller"):
        m[f"synthesis.{name}_s"] = total[f"synthesis.{name}"]
    for name in ("cosimulate", "network_build", "write_trajectories_csv"):
        m[f"runtime.{name}_s"] = total[f"runtime.{name}"]
    simulated = tracer.counts["runtime.trials"] + tracer.counts["runtime.check_trials"]
    cosim_s = m["runtime.cosimulate_s"]
    m["runtime.trials_per_s"] = simulated / cosim_s if cosim_s > 0 else 0.0
    for key in ("composition.x_cmp_bytes", "abstraction.kernel_rows",
                "abstraction.kernel_nnz", "abstraction.export_bytes",
                "runtime.trials", "runtime.check_trials", "runtime.trajectories_bytes"):
        m[key] = tracer.counts[key]
    stage_s = sum(total[f"cli.stage.{s}"] for s in STAGES)
    m["trace.stage_coverage"] = stage_s / pipeline_s if pipeline_s > 0 else 0.0
    m["trace.spans"] = len(tracer.spans)
    return m

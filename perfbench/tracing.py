"""Span tracing for the benchmark's traced runs, installed from outside hamfe2.

A `Tracer` replaces public functions and methods of the hamfe2 modules
(and scipy's `splu`, as the solver calls it) with wrappers that record
one span per call: process id, span id, parent span id, name, start and
end. Counts that belong to a call (elements evaluated, factor nonzeros,
pickled round sizes) are added at the same boundary, outside the span's
own interval. Everything stays in memory until the process ends.

Forked workers inherit the wrappers, because they are installed before
the pool starts. In a child the tracer drops the parent's records and
writes its own when the child leaves through `os._exit`, the exit that
fork-based multiprocessing workers take (atexit handlers do not run
there). The parent collects those files once the pool has stopped.

`layer_metrics` turns the merged records into the per-layer metrics
named in BENCHMARK.json; `self_seconds` is the self-time arithmetic.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import pickle
import sys
import time
from collections import defaultdict

import numpy as np

# span names of each layer boundary; layer_metrics combines them
MESH = {"mesh.generate_masonry_wall", "mesh.generate_masonry_cell",
        "mesh.generate_rectangle_mesh"}
CONSTITUTIVE = {"constitutive.coefficients",
                "constitutive.storage_derivatives"}
ASSEMBLE = {"fem.assemble_system", "fem.capacity_jacobian_diagonals"}
REDUCE = {"fem.reduce_matrix", "fem.reduce_vector"}
FACTOR = {"solver.splu"}
INCREMENT = {"homogenization.solve_rve_increment"}
TANGENT = {"homogenization.effective_tangent"}
ROUND = {"scheduler.run_round"}
COMMIT = {"scheduler.commit"}
MACRO_STEP = {"fe2.step"}

LAYER_METRICS = (
    ("mesh.generate_s", "s", "lower"),
    ("constitutive.calls", "count", "lower"),
    ("constitutive.elements", "count", "lower"),
    ("constitutive.self_s", "s", "lower"),
    ("fem.assemble_calls", "count", "lower"),
    ("fem.assemble_self_s", "s", "lower"),
    ("fem.reduce_calls", "count", "lower"),
    ("fem.reduce_self_s", "s", "lower"),
    ("fem.reduced_nnz_max", "count", "lower"),
    ("solver.factor_calls", "count", "lower"),
    ("solver.factor_s", "s", "lower"),
    ("solver.lu_nnz_max", "count", "lower"),
    ("solver.newton_iters", "count", "lower"),
    ("solver.newton_evals", "count", "lower"),
    ("solver.iter_share", "ratio", "higher"),
    ("solver.step_retries", "count", "lower"),
    ("homogenization.increments", "count", "lower"),
    ("homogenization.increment_s", "s", "lower"),
    ("homogenization.tangent_calls", "count", "lower"),
    ("homogenization.tangent_s", "s", "lower"),
    ("scheduler.rounds", "count", "lower"),
    ("scheduler.round_wall_s", "s", "lower"),
    ("scheduler.worker_busy_s", "s", "lower"),
    ("scheduler.wait_s", "s", "lower"),
    ("scheduler.bytes_down", "bytes", "lower"),
    ("scheduler.bytes_up", "bytes", "lower"),
    ("scheduler.commit_s", "s", "lower"),
    ("fe2.macro_steps", "count", "lower"),
    ("fe2.macro_iters", "count", "lower"),
    ("fe2.macro_self_s", "s", "lower"),
    ("trace.setup_s", "s", "lower"),
    ("trace.solve_s", "s", "lower"),
)

# metrics whose value is a count that must repeat exactly between runs
EXACT = tuple(name for name, unit, _ in LAYER_METRICS
              if unit in ("count", "bytes", "ratio"))


class Tracer:
    """In-memory span and counter store of one process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.enabled = False
        self.missing = []
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self):
        self.pid = os.getpid()
        self.spans = []          # (span id, parent id, name, t0, t1)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self._next = 0

    def _after_fork(self):
        self.reset()
        real_exit = os._exit

        def exit_and_dump(code):
            try:
                self.dump()
            finally:
                real_exit(code)

        os._exit = exit_and_dump

    # ------------------------------------------------------------ recording

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) as one span and return its result."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def last_seconds(self):
        _, _, _, t0, t1 = self.spans[-1]
        return t1 - t0

    def add(self, key, value=1):
        self.counts[key] += value

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], float(value))

    def record(self):
        return {"pid": self.pid, "spans": self.spans,
                "counts": dict(self.counts), "maxima": dict(self.maxima)}

    def dump(self):
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump(self.record(), fh)

    def collect_children(self):
        """Records the forked workers of this process wrote on exit."""
        out = []
        for path in sorted(glob.glob(os.path.join(self.out_dir,
                                                  "spans-*.json"))):
            with open(path) as fh:
                out.append(json.load(fh))
            os.remove(path)
        return out

    # ------------------------------------------------------------ wrapping

    def wrapper(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            out = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    def install(self):
        """Wrap every layer boundary; names not found are reported."""
        import scipy.sparse.linalg as spla

        from hamfe2 import (constitutive, fe2, fem, homogenization, mesh,
                            scheduler, solver)

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "hamfe2" or key.startswith("hamfe2.")]

        def function(module, attr, layer, **hooks):
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{module.__name__}.{attr}")
                return
            _rebind(modules, orig,
                    self.wrapper(f"{layer}.{attr}", orig, **hooks))

        def method(cls, attr, layer, **hooks):
            orig = cls.__dict__.get(attr) if cls is not None else None
            if orig is None:
                self.missing.append(f"{getattr(cls, '__name__', cls)}.{attr}")
                return
            setattr(cls, attr, self.wrapper(f"{layer}.{attr}", orig, **hooks))

        for attr in ("generate_masonry_wall", "generate_masonry_cell",
                     "generate_rectangle_mesh"):
            function(mesh, attr, "mesh")

        def elements(tracer, args, kwargs):
            tracer.add("constitutive.elements", np.size(args[1]))

        for attr in ("coefficients", "storage_derivatives"):
            method(constitutive.KunzelMaterial, attr, "constitutive",
                   before=elements)

        function(fem, "assemble_system", "fem")
        function(fem, "capacity_jacobian_diagonals", "fem")
        cmap = getattr(fem, "ConstraintMap", None)
        method(cmap, "reduce_matrix", "fem",
               after=lambda t, a, out: t.peak("fem.reduced_nnz_max", out.nnz))
        method(cmap, "reduce_vector", "fem")

        spla.splu = self.wrapper(
            "solver.splu", spla.splu,
            after=lambda t, a, lu: t.peak("solver.lu_nnz_max", lu.nnz))
        self._wrap_newton(solver, modules)

        function(homogenization, "solve_rve_increment", "homogenization")
        function(homogenization, "effective_tangent", "homogenization")

        for cls in (getattr(scheduler, "WorkerPool", None),
                    getattr(scheduler, "SerialPool", None)):
            self._wrap_round(cls)
            method(cls, "commit", "scheduler")

        method(getattr(fe2, "FE2Driver", None), "step", "fe2",
               after=lambda t, a, out: t.add("fe2.macro_iters", out[1]))
        return self.missing

    def _wrap_newton(self, solver, modules):
        """newton_solve: count iterations, residual evaluations, failures."""
        orig = getattr(solver, "newton_solve", None)
        if orig is None:
            self.missing.append("hamfe2.solver.newton_solve")
            return
        tracer = self

        @functools.wraps(orig)
        def newton_solve(residual_jacobian, *args, **kwargs):
            if not tracer.enabled:
                return orig(residual_jacobian, *args, **kwargs)

            def counted(z):
                tracer.add("solver.newton_evals")
                return residual_jacobian(z)

            try:
                out = tracer.call("solver.newton_solve", orig,
                                  (counted,) + args, kwargs)
            except solver.SolverError:
                tracer.add("solver.step_retries")
                raise
            tracer.add("solver.newton_iters", len(out[1]) - 1)
            return out

        _rebind(modules, orig, newton_solve)

    def _wrap_round(self, cls):
        """run_round: worker compute, wait and pickled sizes per round."""
        orig = cls.__dict__.get("run_round") if cls is not None else None
        if orig is None:
            self.missing.append(f"{getattr(cls, '__name__', cls)}.run_round")
            return
        tracer = self

        @functools.wraps(orig)
        def run_round(pool, loadings, *args, **kwargs):
            if not tracer.enabled:
                return orig(pool, loadings, *args, **kwargs)
            tracer.add("scheduler.bytes_down",
                       len(pickle.dumps(loadings, protocol=4)))
            first = len(pool.timings)
            out = tracer.call("scheduler.run_round", orig,
                              (pool, loadings) + args, kwargs)
            wall = tracer.last_seconds()
            worker = [rec.seconds for rec in pool.timings[first:]]
            tracer.add("scheduler.worker_busy_s", sum(worker))
            tracer.add("scheduler.wait_s", wall - max(worker, default=0.0))
            tracer.add("scheduler.bytes_up", len(pickle.dumps(out, protocol=4)))
            return out

        cls.run_round = run_round


def _rebind(modules, orig, new):
    """Replace orig by new in every module, `from x import f` copies too."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)


# ------------------------------------------------------------ arithmetic


def self_seconds(spans, names, minus=()):
    """Self time of the spans called `names`, less their `minus` children.

    spans is a list of (span id, parent id, name, t0, t1) from one
    process, parent -1 for roots. A span counts once, at its outermost
    occurrence: a `names` span nested in another is inside that one's
    interval already. From each counted span the durations of the
    outermost `minus` spans below it are subtracted; with minus="*"
    those are the spans of any other name.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)

    def is_minus(name):
        return name not in names if minus == "*" else name in minus

    def covered(sid):
        total = 0.0
        for child in children[sid]:
            if is_minus(child[2]):
                total += child[4] - child[3]
            else:
                total += covered(child[0])
        return total

    def nested(span):
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = by_id.get(parent[1])
        return False

    return sum(s[4] - s[3] - covered(s[0])
               for s in spans if s[2] in names and not nested(s))


def count_spans(spans, names, outermost=False):
    if not outermost:
        return sum(1 for s in spans if s[2] in names)
    by_id = {s[0]: s for s in spans}
    n = 0
    for s in spans:
        if s[2] not in names:
            continue
        parent = by_id.get(s[1])
        while parent is not None and parent[2] not in names:
            parent = by_id.get(parent[1])
        n += parent is None
    return n


def layer_metrics(records, setup_s, solve_s):
    """Per-layer metrics from the records of every process of one run."""
    counts = defaultdict(float)
    maxima = defaultdict(float)
    out = defaultdict(float)
    for rec in records:
        spans = [tuple(s) for s in rec["spans"]]
        for key, value in rec["counts"].items():
            counts[key] += value
        for key, value in rec["maxima"].items():
            maxima[key] = max(maxima[key], value)
        out["mesh.generate_s"] += self_seconds(spans, MESH, ())
        out["constitutive.calls"] += count_spans(spans, CONSTITUTIVE)
        out["constitutive.self_s"] += self_seconds(spans, CONSTITUTIVE, "*")
        out["fem.assemble_calls"] += count_spans(spans, ASSEMBLE)
        out["fem.assemble_self_s"] += self_seconds(spans, ASSEMBLE, "*")
        out["fem.reduce_calls"] += count_spans(spans, REDUCE)
        out["fem.reduce_self_s"] += self_seconds(spans, REDUCE, "*")
        out["solver.factor_calls"] += count_spans(spans, FACTOR)
        out["solver.factor_s"] += self_seconds(spans, FACTOR, ())
        out["homogenization.increments"] += count_spans(spans, INCREMENT,
                                                        outermost=True)
        out["homogenization.increment_s"] += self_seconds(spans, INCREMENT,
                                                          TANGENT)
        out["homogenization.tangent_calls"] += count_spans(spans, TANGENT)
        out["homogenization.tangent_s"] += self_seconds(spans, TANGENT, ())
        out["scheduler.rounds"] += count_spans(spans, ROUND)
        out["scheduler.round_wall_s"] += self_seconds(spans, ROUND, ())
        out["scheduler.commit_s"] += self_seconds(spans, COMMIT, ())
        out["fe2.macro_steps"] += count_spans(spans, MACRO_STEP)
        out["fe2.macro_self_s"] += self_seconds(spans, MACRO_STEP,
                                                ROUND | COMMIT)
    for key in ("constitutive.elements", "solver.newton_iters",
                "solver.newton_evals", "solver.step_retries",
                "scheduler.worker_busy_s", "scheduler.wait_s",
                "scheduler.bytes_down", "scheduler.bytes_up",
                "fe2.macro_iters"):
        out[key] = counts[key]
    out["fem.reduced_nnz_max"] = maxima["fem.reduced_nnz_max"]
    out["solver.lu_nnz_max"] = maxima["solver.lu_nnz_max"]
    evals = out["solver.newton_evals"]
    out["solver.iter_share"] = out["solver.newton_iters"] / evals if evals else 0.0
    out["trace.setup_s"] = setup_s
    out["trace.solve_s"] = solve_s
    return {name: float(out[name]) for name, _, _ in LAYER_METRICS}

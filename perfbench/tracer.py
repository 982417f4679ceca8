"""Layer tracer that wraps gasadapt's entry points from outside the package.

`Tracer.installed()` replaces module and class attributes with timing
wrappers and puts the originals back on exit. Each wrapped call records one
span (name, start, end, parent, attributes) in memory; `layer_metrics` turns
the spans of one operation into the per-layer metrics of the benchmark, and
`write_jsonl` writes the spans out when the benchmark ends.

Only names that callers look up at call time can be wrapped, so each wrapper
is installed on the module whose code makes the call: `cli.run` for the
adaptive loop, `controller.estimate_with_alternatives` and
`estimators.integrate` for the estimators, and the scipy modules that
`nlp.solve` reaches through `sp.bmat` and `spla.splu`.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from gasadapt import cli, controller, estimators, fileio, nlp
from gasadapt.models import ModelLevel

FILEIO_FUNCTIONS = (
    "load_network",
    "load_scenario",
    "load_config",
    "load_solution",
    "save_network",
    "save_scenario",
    "save_solution",
    "export_trace",
    "export_estimates",
    "export_profile",
)

# estimator integrations, by what they integrate and on which grid
INTEGRATE_ROLES = ("L1_2h", "L1_4h", "current_h", "alt_h")

# counts that must repeat exactly between two runs of the same code
EXACT_COUNTS = (
    "controller.solves",
    "nlp.solve.iters",
    "nlp.kkt.factorizations",
    "nlp.jacobian.calls",
    "integrate.steps",
)


LAYER_UNITS = {
    "nlp.kkt.factorizations": "count",
    "nlp.kkt.factor_s": "s",
    "nlp.kkt.fill_nnz_max": "count",
    "nlp.kkt.fill_ratio": "ratio",
    "nlp.kkt.backsolve_s": "s",
    "nlp.kkt.build_s": "s",
    "nlp.kkt.retries": "count",
    "nlp.solve.calls": "count",
    "nlp.solve.s": "s",
    "nlp.solve.self_s": "s",
    "nlp.solve.iters": "count",
    "nlp.solve.vars_max": "count",
    "nlp.jacobian.calls": "count",
    "nlp.jacobian.s": "s",
    "nlp.jacobian.per_iter": "count/iter",
    "nlp.hessian.s": "s",
    "nlp.constraints.calls": "count",
    "nlp.assemble.s": "s",
    "controller.solves": "count",
    "controller.estimates.calls": "count",
    "controller.estimates.s": "s",
    "controller.self_s": "s",
    "controller.max_intervals": "count",
    **{
        f"integrate{role}.{stat}": unit
        for role in ("",) + tuple(f".{r}" for r in INTEGRATE_ROLES)
        for stat, unit in (
            ("calls", "count"),
            ("steps", "count"),
            ("s", "s"),
            ("us_per_step", "us/step"),
        )
    },
    "fileio.calls": "count",
    "fileio.s": "s",
    "fileio.bytes": "bytes",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    attrs: dict
    paused: float = 0.0  # the tracer's own work inside the span, in seconds

    @property
    def duration(self):
        return self.end - self.start - self.paused


class _FactorProxy:
    """Stands in for the SuperLU object so that its back-solves are timed."""

    def __init__(self, tracer, lu, span):
        self._tracer = tracer
        self._lu = lu
        self._span = span

    def solve(self, rhs, *args, **kwargs):
        idx = self._tracer.open("nlp.kkt.backsolve")
        try:
            out = self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.close(idx)
        if not np.all(np.isfinite(out)):
            self._span.attrs["failed"] = True
        return out

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _file_size(args):
    for arg in args:
        if isinstance(arg, (str, os.PathLike)):
            try:
                return os.path.getsize(arg)
            except OSError:
                return 0
    return 0


def _integrate_role(level, grid, owner):
    """Which of the four estimator integrations a call is, from the level and
    stepsize it integrates with and the estimate call that owns it."""
    if owner is None:
        return None
    h = owner["h"]
    ratio = grid.stepsize / h
    if ModelLevel.of(level) == ModelLevel.FULL and math.isclose(ratio, 2.0):
        return "L1_2h"
    if ModelLevel.of(level) == ModelLevel.FULL and math.isclose(ratio, 4.0):
        return "L1_4h"
    if ModelLevel.of(level) == owner["level"]:
        return "current_h"
    return "alt_h"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    # -- spans -------------------------------------------------------------

    def open(self, name, **attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order")

    def pause(self, seconds):
        """Take the tracer's own work out of every open span."""
        for idx in self._stack:
            self.spans[idx].paused += seconds

    def _ancestor(self, name):
        for idx in reversed(self._stack):
            if self.spans[idx].name == name:
                return self.spans[idx]
        return None

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before is not None else {}
            idx = tracer.open(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.spans[idx], result, args)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _wrappers(self):
        """(owner, attribute, wrapper) for every traced entry point."""
        tracer = self

        def assemble_before(net, scn, gas, state):
            return {
                "max_intervals": max(
                    round(net.pipes[pid].length / h) for pid, (_, h) in state.items()
                ),
                "in_controller": tracer._ancestor("controller.run") is not None,
            }

        def solve_after(span, sol, args):
            span.attrs["iters"] = sol.n_iterations
            span.attrs["vars"] = args[0].n_vars

        def estimate_before(pipe, gas, p0, q, level, h, *args, **kwargs):
            return {"level": ModelLevel.of(level), "h": h}

        def integrate_before(level, pipe, gas, p0, q, grid, *args, **kwargs):
            owner = tracer._ancestor("estimators.estimate_with_alternatives")
            return {
                "steps": grid.n_intervals,
                "role": _integrate_role(
                    level, grid, owner.attrs if owner is not None else None
                ),
            }

        def fileio_after(span, result, args):
            span.attrs["bytes"] = _file_size(args)

        wrappers = [
            (cli, "run", self._wrap("controller.run", controller.run)),
            (
                controller,
                "compute_estimates",
                self._wrap("controller.compute_estimates", controller.compute_estimates),
            ),
            (
                controller,
                "estimate_with_alternatives",
                self._wrap(
                    "estimators.estimate_with_alternatives",
                    controller.estimate_with_alternatives,
                    before=estimate_before,
                ),
            ),
            (
                estimators,
                "integrate",
                self._wrap(
                    "estimators.integrate", estimators.integrate, before=integrate_before
                ),
            ),
            (
                nlp,
                "assemble",
                self._wrap("nlp.assemble", nlp.assemble, before=assemble_before),
            ),
            (nlp, "solve", self._wrap("nlp.solve", nlp.solve, after=solve_after)),
            (
                nlp.NlpInstance,
                "jacobian",
                self._wrap("nlp.jacobian", nlp.NlpInstance.jacobian),
            ),
            (
                nlp.NlpInstance,
                "lagrangian_hessian",
                self._wrap("nlp.hessian", nlp.NlpInstance.lagrangian_hessian),
            ),
            (
                nlp.NlpInstance,
                "constraints",
                self._wrap("nlp.constraints", nlp.NlpInstance.constraints),
            ),
            (scipy.sparse, "bmat", self._wrap("nlp.kkt.build", scipy.sparse.bmat)),
            (scipy.sparse.linalg, "splu", self._splu_wrapper(scipy.sparse.linalg.splu)),
        ]
        for name in FILEIO_FUNCTIONS:
            wrappers.append(
                (
                    fileio,
                    name,
                    self._wrap(f"fileio.{name}", getattr(fileio, name), after=fileio_after),
                )
            )
        return wrappers

    def _splu_wrapper(self, splu):
        tracer = self

        def wrapper(A, *args, **kwargs):
            idx = tracer.open("nlp.kkt.factor", nnz=A.nnz, fill=0, failed=True)
            try:
                lu = splu(A, *args, **kwargs)
            finally:
                tracer.close(idx)
            span = tracer.spans[idx]
            # L and U are built on access, which costs ~10 % of a solve
            t0 = time.perf_counter()
            span.attrs["fill"] = lu.L.nnz + lu.U.nnz
            tracer.pause(time.perf_counter() - t0)
            span.attrs["failed"] = False
            return _FactorProxy(tracer, lu, span)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, wrapper in self._wrappers():
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "paused": span.paused,
                            "attrs": span.attrs,
                        }
                    )
                    + "\n"
                )


def layer_metrics(spans, first, last):
    """Per-layer metrics of the spans with indices first..last-1, which must
    be the complete span tree of one operation."""
    selected = range(first, last)
    child_s = {i: 0.0 for i in selected}
    for i in selected:
        span = spans[i]
        if span.parent >= first:
            child_s[span.parent] += span.duration

    count, total, self_s = {}, {}, {}
    for i in selected:
        span = spans[i]
        duration = span.duration
        count[span.name] = count.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + duration
        self_s[span.name] = self_s.get(span.name, 0.0) + duration - child_s[i]

    def of(name, table=total):
        return table.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    factors = [spans[i] for i in selected if spans[i].name == "nlp.kkt.factor"]
    solves = [spans[i] for i in selected if spans[i].name == "nlp.solve"]
    assembles = [spans[i] for i in selected if spans[i].name == "nlp.assemble"]
    integrations = [spans[i] for i in selected if spans[i].name == "estimators.integrate"]
    fileio_spans = [spans[i] for i in selected if spans[i].name.startswith("fileio.")]
    iters = sum(s.attrs["iters"] for s in solves)
    fill_total = sum(s.attrs["fill"] for s in factors)
    nnz_total = sum(s.attrs["nnz"] for s in factors if not s.attrs["failed"])

    metrics = {
        "nlp.kkt.factorizations": of("nlp.kkt.factor", count),
        "nlp.kkt.factor_s": of("nlp.kkt.factor"),
        "nlp.kkt.fill_nnz_max": max((s.attrs["fill"] for s in factors), default=0),
        "nlp.kkt.fill_ratio": ratio(fill_total, nnz_total),
        "nlp.kkt.backsolve_s": of("nlp.kkt.backsolve"),
        "nlp.kkt.build_s": of("nlp.kkt.build"),
        "nlp.kkt.retries": sum(1 for s in factors if s.attrs["failed"]),
        "nlp.solve.calls": len(solves),
        "nlp.solve.s": of("nlp.solve"),
        "nlp.solve.self_s": of("nlp.solve", self_s),
        "nlp.solve.iters": iters,
        "nlp.solve.vars_max": max((s.attrs["vars"] for s in solves), default=0),
        "nlp.jacobian.calls": of("nlp.jacobian", count),
        "nlp.jacobian.s": of("nlp.jacobian"),
        "nlp.jacobian.per_iter": ratio(of("nlp.jacobian", count), iters),
        "nlp.hessian.s": of("nlp.hessian"),
        "nlp.constraints.calls": of("nlp.constraints", count),
        "nlp.assemble.s": of("nlp.assemble"),
        "controller.solves": sum(
            1 for s in assembles if s.attrs["in_controller"]
        ),
        "controller.estimates.calls": of("controller.compute_estimates", count),
        "controller.estimates.s": of("controller.compute_estimates"),
        "controller.self_s": of("controller.run", self_s),
        "controller.max_intervals": max(
            (s.attrs["max_intervals"] for s in assembles if s.attrs["in_controller"]),
            default=0,
        ),
    }

    def integrate_metrics(prefix, group):
        steps = sum(s.attrs["steps"] for s in group)
        seconds = sum(s.duration for s in group)
        metrics[f"{prefix}.calls"] = len(group)
        metrics[f"{prefix}.steps"] = steps
        metrics[f"{prefix}.s"] = seconds
        metrics[f"{prefix}.us_per_step"] = ratio(seconds * 1e6, steps)

    integrate_metrics("integrate", integrations)
    for role in INTEGRATE_ROLES:
        integrate_metrics(
            f"integrate.{role}", [s for s in integrations if s.attrs["role"] == role]
        )
    metrics["fileio.calls"] = len(fileio_spans)
    metrics["fileio.s"] = sum(s.duration for s in fileio_spans)
    metrics["fileio.bytes"] = sum(s.attrs["bytes"] for s in fileio_spans)
    return metrics


def median_metrics(per_op):
    """Per metric, the traced operation's value that is the (low) median."""
    return {
        name: statistics.median_low(m[name] for m in per_op) for name in per_op[0]
    }

"""The three benchmark workloads on the tree-12 fixture.

Each workload has `prepare(seed, workdir)`, the set-up that is timed as
`setup_s`; `operation(ctx)`, the closed-loop operation that is timed as
`wall_s` and `cpu_s`; and `check(ctx, output)`, which returns the list of
problems found in the operation's output (empty when it is correct).

The tree-12 fixture is used as shipped by `adaptive-tree12` and
`uniform-tree12`: a +-5 % shift of its exit flows moves the adaptive run
from seconds to over a minute, because the KKT fill of the grids it chooses
grows, so a seeded scenario there would measure the scenario, not the code.
Only `estimate-tree12` draws its exit flows from the seed; its cost is the
number of integration steps, which does not depend on the flows.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import shutil
import tempfile

from gasadapt import cli, controller, fileio, fixtures, nlp
from gasadapt.models import ModelLevel

# objectives of the fixture problems at the commit that defined the benchmark
ADAPTIVE_OBJECTIVE = 1.0720086538869102
UNIFORM_OBJECTIVE = 1.0719919384122125
OBJECTIVE_RTOL = 1e-6
TRACE_COLUMNS = 15

UNIFORM_INTERVALS = 512
ESTIMATE_SEED_INTERVALS = 128
ESTIMATE_LEVELS = (1, 2, 3)
ESTIMATE_INTERVALS = (64, 256, 1024, 4096)
FLOW_SHIFT = 0.05
# first-order law: eta_d falls 4x from n to 4n intervals
ETA_D_RATIO_RANGE = (3.5, 4.5)


def _relative_error(value, reference):
    return abs(value - reference) / abs(reference)


class AdaptiveTree12:
    """`gasadapt run` in-process on tree-12 with the default config."""

    name = "adaptive-tree12"

    def prepare(self, seed, workdir):
        network = os.path.join(workdir, "tree-12.network.json")
        scenario = os.path.join(workdir, "tree-12.scenario.json")
        with open(network, "w") as handle:
            json.dump(fixtures.tree12_network_dict(), handle)
        with open(scenario, "w") as handle:
            json.dump(fixtures.tree12_scenario_dict(), handle)
        return {"network": network, "scenario": scenario, "workdir": workdir}

    def operation(self, ctx):
        out = tempfile.mkdtemp(prefix="run-", dir=ctx["workdir"])
        argv = ["run", "--network", ctx["network"], "--scenario", ctx["scenario"],
                "--out", out, "--quiet"]
        return cli.main(argv), out

    def check(self, ctx, output):
        code, out = output
        try:
            return self._problems(code, out)
        finally:
            shutil.rmtree(out)

    def _problems(self, code, out):
        if code != cli.EXIT_OK:
            return [f"exit code {code}"]
        problems = []
        with open(os.path.join(out, "solution.json")) as handle:
            objective = json.load(handle)["objective"]
        if _relative_error(objective, ADAPTIVE_OBJECTIVE) > OBJECTIVE_RTOL:
            problems.append(f"objective {objective!r} != {ADAPTIVE_OBJECTIVE!r}")
        with open(os.path.join(out, "trace.csv"), newline="") as handle:
            rows = list(csv.reader(handle))
        if any(len(row) != TRACE_COLUMNS for row in rows):
            problems.append(f"trace.csv rows without {TRACE_COLUMNS} columns")
        with open(os.path.join(out, "estimates.csv"), newline="") as handle:
            etas = [float(row["eta"]) for row in csv.DictReader(handle)]
        eps = controller.AdaptiveConfig().eps
        if not etas or sum(etas) / len(etas) > eps:
            problems.append(f"average eta above eps = {eps} Pa")
        return problems


class UniformTree12:
    """One cold level-1 NLP at n = 512 on every pipe: the uniform baseline."""

    name = "uniform-tree12"

    def prepare(self, seed, workdir):
        net, gas, scn = fixtures.tree12()
        state = {
            pid: (ModelLevel.FULL, pipe.length / UNIFORM_INTERVALS)
            for pid, pipe in net.pipes.items()
        }
        return {"net": net, "gas": gas, "scn": scn, "state": state}

    def operation(self, ctx):
        inst = nlp.assemble(ctx["net"], ctx["scn"], ctx["gas"], ctx["state"])
        return nlp.solve(inst)

    def check(self, ctx, sol):
        problems = []
        if sol.status != nlp.STATUS_OPTIMAL:
            problems.append(f"status {sol.status}")
        if not sol.kkt_error <= nlp.DEFAULT_EPS_OPT:
            problems.append(f"kkt_error {sol.kkt_error} above eps_opt")
        if _relative_error(sol.objective, UNIFORM_OBJECTIVE) > OBJECTIVE_RTOL:
            problems.append(f"objective {sol.objective!r} != {UNIFORM_OBJECTIVE!r}")
        return problems


class EstimateTree12:
    """`controller.compute_estimates` over a stored solution, swept over
    levels 1-3 and n in {64, 256, 1024, 4096}; exit flows drawn from the seed."""

    name = "estimate-tree12"

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        network = fixtures.tree12_network_dict()
        scenario = fixtures.tree12_scenario_dict()
        flows = scenario["flows"]
        for exit_id in ("exit_a", "exit_b"):
            flows[exit_id] *= rng.uniform(1.0 - FLOW_SHIFT, 1.0 + FLOW_SHIFT)
        flows["entry"] = -(flows["exit_a"] + flows["exit_b"])
        net, gas = fileio.network_from_dict(network)
        scn = fileio.scenario_from_dict(scenario)
        state = {
            pid: (ModelLevel.FULL, pipe.length / ESTIMATE_SEED_INTERVALS)
            for pid, pipe in net.pipes.items()
        }
        sol = nlp.solve(nlp.assemble(net, scn, gas, state))
        if sol.status != nlp.STATUS_OPTIMAL:
            raise RuntimeError(f"seed solve stopped with status {sol.status}")
        return {"net": net, "gas": gas, "solution": sol}

    def operation(self, ctx):
        net = ctx["net"]
        sweep = {}
        for level in ESTIMATE_LEVELS:
            levels = {pid: ModelLevel.of(level) for pid in net.pipes}
            for n in ESTIMATE_INTERVALS:
                stepsizes = {pid: pipe.length / n for pid, pipe in net.pipes.items()}
                estimates, _ = controller.compute_estimates(
                    net, ctx["gas"], ctx["solution"], levels, stepsizes
                )
                sweep[level, n] = estimates
        return sweep

    def check(self, ctx, sweep):
        problems = []
        for (level, n), estimates in sweep.items():
            for est in estimates.values():
                if not (
                    math.isfinite(est.eta_d) and est.eta_d >= 0.0
                    and math.isfinite(est.eta_m) and est.eta_m >= 0.0
                ):
                    problems.append(f"level {level} n {n} {est.pipe_id}: bad eta")
                if level == 1 and est.eta_m != 0.0:
                    problems.append(f"n {n} {est.pipe_id}: eta_m != 0 at level 1")
        summed = [
            sum(e.eta_d for e in sweep[1, n].values()) for n in ESTIMATE_INTERVALS
        ]
        lo, hi = ETA_D_RATIO_RANGE
        for n, coarse, fine in zip(ESTIMATE_INTERVALS, summed, summed[1:]):
            ratio = coarse / fine if fine > 0.0 else math.inf
            if not lo <= ratio <= hi:
                problems.append(f"eta_d falls {ratio:.3f}x from n = {n} to 4n")
        return problems


WORKLOADS = {w.name: w for w in (AdaptiveTree12(), UniformTree12(), EstimateTree12())}

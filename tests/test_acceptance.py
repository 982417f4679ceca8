"""Acceptance suite: the nine release criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import json
import math
import subprocess
import sys
import time
from itertools import combinations

import numpy as np

from gasadapt import nlp
from gasadapt.controller import (
    AdaptiveConfig,
    compute_estimates,
    mark_coarsen,
    mark_refine,
    mark_switch_down,
    mark_switch_up,
    run,
    validate_parameters,
)
from gasadapt.estimators import estimate_with_alternatives
from gasadapt.fixtures import (
    chain5,
    chain5_network_dict,
    chain5_scenario_dict,
    tree12,
)
from gasadapt.integrate import Grid, integrate
from gasadapt.models import ModelLevel, analytic_pressure, sound_speed
from gasadapt.network import Compressor, GasParameters, Network, Node, Pipe, Scenario

GAS = GasParameters()
TEST_PIPE = Pipe(
    id="t", from_node="a", to_node="b", length=10000.0, diameter=0.6, friction=0.01
)


def _report(index, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {index}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {index}: {name} {detail}"


def test_criterion_1_integrator_order():
    t0 = time.perf_counter()
    errors = []
    for n in (8, 16, 32, 64, 128):
        grid = Grid(10000.0 / n, n)
        profile = integrate(ModelLevel.FRICTION, TEST_PIPE, GAS, 60e5, 100.0, grid)
        exact = np.array(
            [
                analytic_pressure(ModelLevel.FRICTION, TEST_PIPE, GAS, 60e5, 100.0, x)
                for x in grid.positions()
            ]
        )
        errors.append(float(np.max(np.abs(profile - exact))))
    ratios = [c / f for c, f in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(1.8 <= r <= 2.2 for r in ratios) and elapsed < 1.0
    _report(1, "integrator order", ok,
            f"ratios {[f'{r:.3f}' for r in ratios]}, {elapsed:.2f}s")


def test_criterion_2_error_halving():
    t0 = time.perf_counter()
    h = 10000.0 / 16
    coarse, fine = (
        estimate_with_alternatives(TEST_PIPE, GAS, 60e5, 100.0, ModelLevel.FULL, at)[0]
        for at in (h, h / 2)
    )
    ratio = fine.eta_d / coarse.eta_d
    elapsed = time.perf_counter() - t0
    ok = 0.4 <= ratio <= 0.6 and elapsed < 1.0
    _report(2, "discretization-error halving", ok, f"ratio {ratio:.4f}")


def test_criterion_3_estimator_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    cases = []
    while len(cases) < 10:
        length = rng.uniform(5e3, 3e4)
        pipe = Pipe(
            id=f"r{len(cases)}",
            from_node="a",
            to_node="b",
            length=length,
            diameter=rng.uniform(0.4, 0.8),
            friction=rng.uniform(0.008, 0.015),
        )
        p0 = rng.uniform(45e5, 70e5)
        q = rng.uniform(20.0, 120.0)
        slope = rng.uniform(-0.02, 0.02)
        level = ModelLevel.of(2 + len(cases) % 2)
        try:
            end = analytic_pressure(
                ModelLevel.FRICTION, pipe, GAS, p0, q, length, slope
            )
        except Exception:
            continue
        c = sound_speed(GAS)
        if end < 0.5 * p0 or end < 3.0 * q * c / pipe.cross_area:
            continue
        cases.append((pipe, p0, q, slope, level))

    worst = np.inf
    for pipe, p0, q, slope, level in cases:
        h = pipe.length / 16
        est, _ = estimate_with_alternatives(pipe, GAS, p0, q, level, h, slope)
        reference = integrate(
            ModelLevel.FULL, pipe, GAS, p0, q, Grid(h / 64, 1024), slope
        )
        current = integrate(level, pipe, GAS, p0, q, Grid(h, 16), slope)
        # both on the 4h gridpoints
        true_error = float(
            np.max(np.abs(reference[::256] - current[::4]))
        )
        if true_error > 0:
            worst = min(worst, est.eta / true_error)
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.8 and elapsed < 10.0
    _report(3, "estimator lower bound", ok,
            f"min eta/true {worst:.3f}, {elapsed:.2f}s")


def test_criterion_4_marking_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True

    def min_card(values, target):
        ids = list(values)
        for k in range(len(ids) + 1):
            for combo in combinations(ids, k):
                if sum(values[i] for i in combo) >= target:
                    return k
        return None

    def max_card(values, budget):
        ids = list(values)
        for k in range(len(ids), -1, -1):
            for combo in combinations(ids, k):
                if sum(values[i] for i in combo) <= budget:
                    return k
        return 0

    for _ in range(12):
        size = int(rng.integers(1, 11))
        eta = {f"p{i}": float(rng.integers(0, 100)) for i in range(size)}
        theta, phi, tau, eps = 0.7, 0.3, 1.1, 25.0

        refine = mark_refine(eta, theta)
        target = theta * sum(eta.values())
        ok &= sum(eta[p] for p in refine) >= target
        ok &= len(refine) == min_card(eta, target)

        up = mark_switch_up(eta, theta, eps)
        eligible = {p: v for p, v in eta.items() if v > eps}
        target_up = theta * sum(eligible.values())
        ok &= up <= set(eligible) and sum(eligible[p] for p in up) >= target_up
        ok &= len(up) == min_card(eligible, target_up)

        coarsen = mark_coarsen(eta, phi)
        budget = phi * sum(eta.values())
        ok &= sum(eta[p] for p in coarsen) <= budget
        ok &= len(coarsen) == max_card(eta, budget)

        down = mark_switch_down(eta, phi, tau, eps)
        elig_down = {p: v for p, v in eta.items() if v <= tau * eps}
        budget_down = phi * sum(elig_down.values())
        ok &= down <= set(elig_down)
        ok &= sum(elig_down[p] for p in down) <= budget_down
        ok &= len(down) == max_card(elig_down, budget_down)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(4, "marking correctness (exhaustive)", ok, f"{elapsed:.2f}s")


def test_criterion_5_termination_condition_validator():
    t0 = time.perf_counter()
    warnings = validate_parameters(AdaptiveConfig(), n_pipes=39)
    elapsed = time.perf_counter() - t0
    ok = (
        len(warnings) == 1
        and "model switching" in warnings[0]
        and elapsed < 0.1
    )
    _report(5, "termination-condition validator", ok, warnings[0][:60] if warnings else "")


def test_criterion_6_end_to_end_termination():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, fixture in (("chain-5", chain5), ("tree-12", tree12)):
        net, gas, scn = fixture()
        config = AdaptiveConfig()  # eps = 1e-4 bar, benchmark parameters
        sol, state = run(net, scn, gas, config)
        solves = len(state.trace)
        ok &= solves <= 50
        ok &= state.trace[-1].avg_eta <= config.eps
        for pid, pipe in net.pipes.items():
            n = round(pipe.length / state.stepsizes[pid])
            ok &= n % 4 == 0
            initial = pipe.length / config.initial_intervals
            ok &= state.stepsizes[pid] <= initial * (1 + 1e-12)
        details.append(f"{name}: {solves} solves")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(6, "end-to-end termination", ok,
            f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_7_nlp_oracles():
    t0 = time.perf_counter()
    # single pipe with fixed flow: endpoint must match the IVP
    net = Network(
        [Node("a", "entry", 60e5, 60e5), Node("b", "exit", 1e5, 1e7)],
        [Pipe("p", "a", "b", length=20000.0, diameter=0.6, friction=0.011)],
    )
    scn = Scenario({"a": -50.0, "b": 50.0})
    state = {"p": (ModelLevel.FRICTION, 20000.0 / 16)}
    sol = nlp.solve(nlp.assemble(net, scn, GAS, state))
    profile = integrate(
        ModelLevel.FRICTION, net.pipes["p"], GAS, 60e5, 50.0,
        Grid(20000.0 / 16, 16),
    )
    rel_endpoint = abs(sol.node_pressures["b"] - profile[-1]) / profile[-1]

    # compressor chain: optimal lift from backward inversion of the
    # discretized level-3 recursion p_{k-1} = p_k + h K / p_k
    chain = Network(
        [
            Node("a", "entry", 41e5, 41e5),
            Node("m", "inner", 1e5, 1e7),
            Node("b", "exit", 41e5, 1e7),
        ],
        [Pipe("p", "m", "b", length=20000.0, diameter=0.6, friction=0.011)],
        [Compressor("c", "a", "m", lift_max=30e5, cost_coeff=1.0)],
    )
    pipe = chain.pipes["p"]
    c2 = GAS.specific_gas_constant * GAS.temperature * GAS.compressibility
    sigma = 1e-6
    K = (
        pipe.friction * c2 * 50.0 * math.sqrt(50.0**2 + sigma**2)
        / (2.0 * pipe.cross_area**2 * pipe.diameter)
    )
    h, p_req = 20000.0 / 16, 41e5
    for _ in range(16):
        p_req = p_req + h * K / p_req
    lift_oracle = p_req - 41e5
    chain_sol = nlp.solve(nlp.assemble(chain, scn, GAS, state))
    rel_lift = abs(chain_sol.compressor_lifts["c"] - lift_oracle) / lift_oracle
    elapsed = time.perf_counter() - t0
    ok = rel_endpoint <= 1e-6 and rel_lift <= 1e-6 and elapsed < 5.0
    _report(7, "NLP solver correctness", ok,
            f"endpoint rel {rel_endpoint:.2e}, lift rel {rel_lift:.2e}")


def test_criterion_8_adaptive_speedup():
    # load scipy first, so that neither timed run pays for the one-time import
    # that the first `nlp.assemble` of a process makes
    nlp._load_scipy()
    t0 = time.perf_counter()
    net, gas, scn = tree12()
    config = AdaptiveConfig()

    t_run = time.perf_counter()
    sol, state = run(net, scn, gas, config)
    adaptive_seconds = time.perf_counter() - t_run

    # uniform reference: level 1 everywhere at the finest grid the adaptive
    # run used anywhere, which also meets the tolerance
    max_intervals = max(
        round(p.length / state.stepsizes[pid]) for pid, p in net.pipes.items()
    )
    uniform = {
        pid: (ModelLevel.FULL, p.length / max_intervals)
        for pid, p in net.pipes.items()
    }
    t_run = time.perf_counter()
    uniform_sol = nlp.solve(nlp.assemble(net, scn, gas, uniform))
    uniform_seconds = time.perf_counter() - t_run

    levels = {pid: lv for pid, (lv, _) in uniform.items()}
    steps = {pid: h for pid, (_, h) in uniform.items()}
    estimates, _ = compute_estimates(net, gas, uniform_sol, levels, steps)
    uniform_avg = sum(e.eta for e in estimates.values()) / len(estimates)

    elapsed = time.perf_counter() - t0
    speedup = uniform_seconds / adaptive_seconds
    ok = (
        uniform_sol.status == nlp.STATUS_OPTIMAL
        and uniform_avg <= config.eps
        and speedup >= 2.0
        and elapsed < 120.0
    )
    _report(8, "adaptive speed-up", ok,
            f"{speedup:.2f}x (adaptive {adaptive_seconds:.1f}s, "
            f"uniform {uniform_seconds:.1f}s, n={max_intervals})")


def test_criterion_9_parallel_determinism(tmp_path):
    t0 = time.perf_counter()
    net_path = tmp_path / "net.json"
    scn_path = tmp_path / "scn.json"
    net_path.write_text(json.dumps(chain5_network_dict()))
    scn_path.write_text(json.dumps(chain5_scenario_dict()))
    sol_path = tmp_path / "sol.json"
    subprocess.run(
        [
            sys.executable, "-m", "gasadapt.cli", "nlp-solve",
            "--network", str(net_path), "--scenario", str(scn_path),
            "--level", "2", "--intervals", "16", "--out", str(sol_path),
        ],
        check=True,
        capture_output=True,
    )
    outputs = []
    for index in range(2):
        out_path = tmp_path / f"est{index}.csv"
        subprocess.run(
            [
                sys.executable, "-m", "gasadapt.cli", "estimate",
                "--network", str(net_path), "--solution", str(sol_path),
                "--out", str(out_path),
            ],
            check=True,
            capture_output=True,
        )
        outputs.append(out_path.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0 and elapsed < 10.0
    _report(9, "parallel determinism", ok, f"{len(outputs[0])} bytes identical")

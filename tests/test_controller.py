"""Adaptive control loop: configuration, termination, trace invariants."""

import numpy as np
import pytest

from gasadapt import controller, estimators, nlp
from gasadapt.controller import (
    AdaptiveConfig,
    compute_estimates,
    is_eps_feasible,
    run,
    validate_parameters,
)
from gasadapt.errors import EmptyNetwork
from gasadapt.fixtures import chain5
from gasadapt.integrate import integrate
from gasadapt.models import ModelLevel
from gasadapt.network import GasParameters, Network, Node, Pipe, Scenario


# -- configuration ------------------------------------------------------------


def test_config_defaults_are_consistent():
    config = AdaptiveConfig()
    assert config.eps == 10.0  # 1e-4 bar in Pa
    assert (config.theta_d, config.phi_d, config.tau, config.mu) == (0.7, 0.3, 1.1, 4)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"theta_d": 1.5},
        {"phi_m": -0.1},
        {"tau": 0.9},
        {"mu": 0},
        {"eps": 0.0},
        {"eps": float("nan")},
        {"eps": float("inf")},
        {"tau": float("nan")},
        {"tau": float("inf")},
        {"max_outer_iterations": -3},
        {"eps_opt": 0.0},
        {"eps_opt": -1.0},
        {"eps_opt": float("nan")},
        {"eps_opt": float("inf")},
        {"initial_intervals": 6},
        {"split_tolerance": True, "eps_opt": 100.0},
        {"mu": 2.5},
        {"max_outer_iterations": 1.5},
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        AdaptiveConfig(**kwargs)


def test_split_tolerance_shifts_feasibility_threshold():
    config = AdaptiveConfig(eps=10.0, eps_opt=1.0, split_tolerance=True)
    assert config.eps_feasibility == 9.0
    assert AdaptiveConfig(eps=10.0).eps_feasibility == 10.0


# -- parameter validator ------------------------------------------------------


def test_validator_flags_second_inequality_for_benchmark_parameters():
    warnings = validate_parameters(AdaptiveConfig(), n_pipes=39)
    assert len(warnings) == 1
    assert "model switching" in warnings[0]


def test_validator_passes_for_large_mu():
    assert validate_parameters(AdaptiveConfig(mu=25), n_pipes=39) == []


def test_validator_flags_both_inequalities():
    config = AdaptiveConfig(theta_d=0.1, theta_m=0.1, phi_d=0.9, phi_m=0.9, mu=1)
    assert len(validate_parameters(config, n_pipes=10)) == 2


def test_validator_inequalities_are_strict():
    # equality violates the strict > requirement
    config = AdaptiveConfig(theta_d=0.5, phi_d=1.0, mu=4)
    warnings = validate_parameters(config, n_pipes=1)
    assert any("refinement/coarsening" in w for w in warnings)


# -- estimator determinism ----------------------------------------------------


def test_compute_estimates_repeats_its_estimates():
    from gasadapt import nlp

    net, gas, scn = chain5()
    state = {
        pid: (ModelLevel.FRICTION, p.length / 4) for pid, p in net.pipes.items()
    }
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    levels = {pid: lv for pid, (lv, _) in state.items()}
    steps = {pid: h for pid, (_, h) in state.items()}

    first, _ = compute_estimates(net, gas, sol, levels, steps)
    second, _ = compute_estimates(net, gas, sol, levels, steps)
    assert first == second


# -- estimators march what the NLP discretizes ---------------------------------


def reversed_pair():
    """Pipe a->b carries 60 kg/s from the entry b (60 bar, 80 m) back to the
    exit a (40-100 bar, 0 m), so its flow is -60 kg/s."""
    net = Network(
        [
            Node("a", "exit", 40e5, 100e5, elevation=0.0),
            Node("b", "entry", 60e5, 60e5, elevation=80.0),
        ],
        [Pipe("p", "a", "b", length=20000.0, diameter=0.5, friction=0.011)],
    )
    return net, GasParameters(), Scenario({"b": -60.0, "a": 60.0})


def record_integrations(monkeypatch):
    """(level, pipe, p0, q, grid, profile) of every estimator integration."""
    calls = []

    def recording_integrate(level, pipe, gas, p0, q, grid, *args, **kwargs):
        profile = integrate(level, pipe, gas, p0, q, grid, *args, **kwargs)
        calls.append((level, pipe, p0, q, grid, profile))
        return profile

    monkeypatch.setattr(estimators, "integrate", recording_integrate)
    return calls


def assert_current_marches_match_nlp(calls, sol, levels, stepsizes):
    """Each current-level march at h below level 1 lies within 1e-3 Pa of the
    NLP profile [p_from, interior..., p_to] of its pipe; returns how many
    marches were checked."""
    checked = 0
    for level, pipe, _, _, grid, profile in calls:
        if level != levels[pipe.id] or grid.stepsize != stepsizes[pipe.id]:
            continue
        checked += 1
        nlp_profile = np.concatenate([
            [sol.node_pressures[pipe.from_node]],
            sol.interior_pressures[pipe.id],
            [sol.node_pressures[pipe.to_node]],
        ])
        np.testing.assert_allclose(profile.values, nlp_profile, rtol=0.0, atol=1e-3)
    return checked


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_estimators_march_reversed_pipe_from_its_from_node(monkeypatch, level, n):
    net, gas, scn = reversed_pair()
    levels = {"p": ModelLevel.of(level)}
    stepsizes = {"p": net.pipes["p"].length / n}
    state = {"p": (levels["p"], stepsizes["p"])}
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    assert sol.status == nlp.STATUS_OPTIMAL
    assert sol.arc_flows["p"] == pytest.approx(-60.0)

    calls = record_integrations(monkeypatch)
    compute_estimates(net, gas, sol, levels, stepsizes)
    # level 1 at 2h and 4h, and at h the current and the alternative level
    # unless it is level 1
    assert len(calls) == (3 if level == 1 else 4)
    for _, _, p0, q, _, _ in calls:
        assert (p0, q) == (sol.node_pressures["a"], sol.arc_flows["p"])
    if level != 1:
        assert assert_current_marches_match_nlp(calls, sol, levels, stepsizes) == 1


def test_mesh_run_estimates_the_profiles_the_nlp_returns(monkeypatch, grid_mesh):
    net, gas, scn = grid_mesh(5, 6)
    config = AdaptiveConfig()
    sol, state = run(net, scn, gas, config)
    assert is_eps_feasible(state.estimates.values(), config.eps)
    assert any(q < 0.0 for q in sol.arc_flows.values())

    calls = record_integrations(monkeypatch)
    estimates, _ = compute_estimates(net, gas, sol, state.levels, state.stepsizes)
    assert estimates == state.estimates
    below_level_1 = sum(level != ModelLevel.FULL for level in state.levels.values())
    checked = assert_current_marches_match_nlp(
        calls, sol, state.levels, state.stepsizes
    )
    assert checked == below_level_1


def test_mesh_7x8_adaptive_run_pins_solves_and_objective(grid_mesh):
    # nodes of degree 4 and 11 pipes with reversed flow at the optimum
    net, gas, scn = grid_mesh(7, 8)
    sol, state = run(net, scn, gas, AdaptiveConfig())
    assert sum(q < 0.0 for q in sol.arc_flows.values()) == 11
    assert len(state.trace) == 10
    assert sol.objective == pytest.approx(2.736851288587666, rel=1e-9)


# -- end-to-end loop ----------------------------------------------------------


@pytest.fixture(scope="module")
def chain5_run():
    net, gas, scn = chain5()
    config = AdaptiveConfig()
    sol, state = run(net, scn, gas, config)
    return net, config, sol, state


def test_run_terminates_eps_feasible(chain5_run):
    _, config, _, state = chain5_run
    assert is_eps_feasible(state.estimates.values(), config.eps)
    assert state.trace[-1].avg_eta <= config.eps


def test_run_stops_at_the_first_record_within_eps(chain5_run):
    # the stop is read from the trace: every earlier record is above eps
    _, config, _, state = chain5_run
    assert all(r.avg_eta > config.eps for r in state.trace[:-1])


def test_run_counts_each_round_of_marks_on_the_next_solve(monkeypatch):
    counts = {}

    def counting(name):
        mark = getattr(controller, name)

        def wrapped(*args, **kwargs):
            marked = mark(*args, **kwargs)
            counts.setdefault(name, []).append(len(marked))
            return marked

        monkeypatch.setattr(controller, name, wrapped)

    for name in ("mark_refine", "mark_switch_up", "mark_coarsen", "mark_switch_down"):
        counting(name)
    net, gas, scn = chain5()
    _, state = run(net, scn, gas, AdaptiveConfig())
    rows = state.trace[1:]
    assert [r.n_refined for r in rows] == counts["mark_refine"]
    assert [r.n_switched_up for r in rows] == counts["mark_switch_up"]
    # a coarsen/switch-down round ends an outer iteration and is counted on
    # the first solve of the next one, and on no other
    first = [r for r in rows if r.inner_j == 1 and r.outer_k > 1]
    assert [r.n_coarsened for r in first] == counts["mark_coarsen"]
    assert [r.n_switched_down for r in first] == counts["mark_switch_down"]
    others = [r for r in rows if r not in first]
    assert all(r.n_coarsened == r.n_switched_down == 0 for r in others)
    assert sum(counts["mark_coarsen"]) > 0


def test_run_respects_grid_floor_and_alignment(chain5_run):
    net, _, _, state = chain5_run
    for pid, pipe in net.pipes.items():
        assert state.stepsizes[pid] <= state.initial_stepsizes[pid]
        n = round(pipe.length / state.stepsizes[pid])
        assert n % 4 == 0
        assert n * state.stepsizes[pid] == pytest.approx(pipe.length)


def test_run_levels_stay_in_hierarchy(chain5_run):
    _, _, _, state = chain5_run
    assert all(lv in (1, 2, 3) for lv in state.levels.values())


def test_run_trace_one_record_per_solve(chain5_run):
    _, _, _, state = chain5_run
    indices = [r.solve_index for r in state.trace]
    assert indices == list(range(len(state.trace)))
    assert state.trace[0].outer_k == 0 and state.trace[0].inner_j == 0
    assert state.trace[0].n_refined == 0 and state.trace[0].n_switched_up == 0


def test_run_inner_rounds_do_not_increase_total_error(chain5_run):
    # up to first-order estimator noise: decrease >= -0.1 * previous total
    _, _, _, state = chain5_run
    for prev, cur in zip(state.trace, state.trace[1:]):
        if cur.n_refined + cur.n_switched_up > 0:
            assert prev.sum_eta - cur.sum_eta >= -0.1 * prev.sum_eta


def test_run_estimates_cover_every_pipe(chain5_run):
    net, _, _, state = chain5_run
    assert set(state.estimates) == set(net.pipes)


def test_run_solution_is_accepted_state(chain5_run):
    _, _, sol, state = chain5_run
    assert sol is state.solution
    assert sol.status == "LocalOptimum"


def test_run_empty_network_raises():
    net = Network([Node("a", "entry", 1e5, 1e7)], [])
    with pytest.raises(EmptyNetwork):
        run(net, Scenario({}), None, AdaptiveConfig())

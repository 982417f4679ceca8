"""NLP assembly and interior-point solver against closed-form oracles."""

import numpy as np
import pytest

from gasadapt import nlp
from gasadapt.controller import AdaptiveConfig, run
from gasadapt.fixtures import chain5, tree12
from gasadapt.integrate import Grid, integrate
from gasadapt.models import ModelLevel
from gasadapt.network import (
    Compressor,
    GasParameters,
    Network,
    Node,
    Pipe,
    Scenario,
    mass_balance_residual,
)

# objective of the cold level-1 n=512 solve on tree-12
TREE12_UNIFORM_OBJECTIVE = 1.0719919384122125

# required compressor lift for the chain oracle below: backward inversion of
# the implicit-Euler level-3 recursion p_{k-1} = p_k + h K / p_k from the
# exit bound 41e5 Pa over 16 steps (L=20 km, D=0.6, lambda=0.011, q=50,
# smoothed |q|q), minus the fixed 41e5 Pa entry pressure
CHAIN_OPTIMAL_LIFT = 180936.98722077496


def single_pipe_instance(level, n=16, q=50.0):
    net = Network(
        [
            Node("a", "entry", 60e5, 60e5),
            Node("b", "exit", 1e5, 1e7),
        ],
        [Pipe("p", "a", "b", length=20000.0, diameter=0.6, friction=0.011)],
    )
    scn = Scenario({"a": -q, "b": q})
    gas = GasParameters()
    state = {"p": (ModelLevel.of(level), 20000.0 / n)}
    return net, scn, gas, state


def compressor_chain(lift_max=30e5):
    net = Network(
        [
            Node("a", "entry", 41e5, 41e5),
            Node("m", "inner", 1e5, 1e7),
            Node("b", "exit", 41e5, 1e7),
        ],
        [Pipe("p", "m", "b", length=20000.0, diameter=0.6, friction=0.011)],
        [Compressor("c", "a", "m", lift_max=lift_max, cost_coeff=1.0)],
    )
    scn = Scenario({"a": -50.0, "b": 50.0})
    gas = GasParameters()
    state = {"p": (ModelLevel.FRICTION, 20000.0 / 16)}
    return net, scn, gas, state


@pytest.mark.parametrize("level", [1, 3])
def test_single_pipe_reproduces_ivp_endpoint(level):
    net, scn, gas, state = single_pipe_instance(level)
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    assert sol.status == nlp.STATUS_OPTIMAL
    profile = integrate(
        ModelLevel.of(level),
        net.pipes["p"],
        gas,
        60e5,
        50.0,
        Grid.for_pipe(20000.0, 16),
    )
    assert sol.node_pressures["b"] == pytest.approx(profile.endpoint(), rel=1e-6)
    assert sol.objective == 0.0


def test_single_pipe_interior_matches_ivp_profile():
    net, scn, gas, state = single_pipe_instance(3)
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    profile = integrate(
        ModelLevel.FRICTION, net.pipes["p"], gas, 60e5, 50.0, Grid.for_pipe(20000.0, 16)
    )
    assert sol.interior_pressures["p"] == pytest.approx(
        profile.values[1:-1], rel=1e-6
    )


def test_compressor_chain_optimal_lift():
    net, scn, gas, state = compressor_chain()
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    assert sol.status == nlp.STATUS_OPTIMAL
    assert sol.compressor_lifts["c"] == pytest.approx(CHAIN_OPTIMAL_LIFT, rel=1e-6)
    assert sol.objective == pytest.approx(1.0 * CHAIN_OPTIMAL_LIFT, rel=1e-6)


def test_infeasible_when_lift_bound_too_small():
    net, scn, gas, state = compressor_chain(lift_max=1e5)
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    assert sol.status == nlp.STATUS_INFEASIBLE


def test_objective_monotone_in_lift_relaxation():
    objectives = []
    for lift_max in (3e5, 30e5, 60e5):
        net, scn, gas, state = compressor_chain(lift_max=lift_max)
        sol = nlp.solve(nlp.assemble(net, scn, gas, state))
        assert sol.status == nlp.STATUS_OPTIMAL
        objectives.append(sol.objective)
    assert objectives[1] <= objectives[0] * (1 + 1e-8)
    assert objectives[2] <= objectives[1] * (1 + 1e-8)


def test_network_without_pipes_converges():
    # the exit pressure ends on its lower bound with a multiplier of 1e5 per
    # bar, so the slack kept off the bound must be of machine precision for
    # the complementarity error to fall below eps_opt
    net = Network(
        [Node("a", "entry", 40e5, 40e5), Node("b", "exit", 41e5, 1e7)],
        [],
        [Compressor("c", "a", "b", lift_max=30e5, cost_coeff=1.0)],
    )
    scn = Scenario({"a": -50.0, "b": 50.0})
    sol = nlp.solve(nlp.assemble(net, scn, GasParameters(), {}))
    assert sol.status == nlp.STATUS_OPTIMAL
    assert sol.compressor_lifts["c"] == pytest.approx(1e5, rel=1e-9)
    assert sol.objective == pytest.approx(1e5, rel=1e-9)


def serial_compressors(lift_max_1):
    net = Network(
        [
            Node("a", "entry", 40e5, 40e5),
            Node("m", "inner", 1e5, 1e7),
            Node("n", "inner", 1e5, 1e7),
            Node("b", "exit", 50e5, 1e7),
        ],
        [Pipe("p", "n", "b", length=20000.0, diameter=0.6, friction=0.011)],
        [
            Compressor("c1", "a", "m", lift_max=lift_max_1, cost_coeff=1.0),
            Compressor("c2", "m", "n", lift_max=30e5, cost_coeff=2.0),
        ],
    )
    scn = Scenario({"a": -50.0, "b": 50.0})
    state = {"p": (ModelLevel.FRICTION, 20000.0 / 16)}
    return nlp.solve(nlp.assemble(net, scn, GasParameters(), state))


def test_serial_compressors_cheap_one_at_its_upper_bound():
    # the cheaper first compressor runs at its lift bound and the second
    # supplies the rest of the lift that the first gives alone when unbounded
    sol = serial_compressors(lift_max_1=5e5)
    assert sol.status == nlp.STATUS_OPTIMAL
    assert sol.compressor_lifts["c1"] == pytest.approx(5e5, rel=1e-9)
    alone = serial_compressors(lift_max_1=30e5)
    assert alone.status == nlp.STATUS_OPTIMAL
    assert alone.compressor_lifts["c2"] == pytest.approx(0.0, abs=1e-3)
    total = sol.compressor_lifts["c1"] + sol.compressor_lifts["c2"]
    assert total == pytest.approx(alone.compressor_lifts["c1"], rel=1e-8)


def test_warm_start_from_exact_solution_converges_fast():
    net, gas, scn = chain5()
    state = {
        pid: (ModelLevel.FRICTION, p.length / 4) for pid, p in net.pipes.items()
    }
    inst = nlp.assemble(net, scn, gas, state)
    cold = nlp.solve(inst)
    assert cold.status == nlp.STATUS_OPTIMAL
    warm = nlp.solve(inst, warm_start=cold)
    assert warm.status == nlp.STATUS_OPTIMAL
    assert warm.n_iterations <= 3


def test_mass_balance_holds_at_solution():
    net, gas, scn = chain5()
    state = {
        pid: (ModelLevel.FRICTION, p.length / 4) for pid, p in net.pipes.items()
    }
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    residual = mass_balance_residual(net, scn, sol.arc_flows)
    assert max(abs(v) for v in residual.values()) <= 1e-6


def test_kkt_error_below_tolerance():
    net, scn, gas, state = single_pipe_instance(1)
    sol = nlp.solve(nlp.assemble(net, scn, gas, state), eps_opt=1e-8)
    assert sol.status == nlp.STATUS_OPTIMAL
    assert sol.kkt_error <= 1e-8


def test_assemble_dimensions():
    net, scn, gas, state = single_pipe_instance(3, n=16)
    inst = nlp.assemble(net, scn, gas, state)
    # 2 node pressures + 1 flow + 15 interior pressures
    assert inst.n_vars == 18
    # 2 mass balances + 16 pipe gridpoint relations
    assert inst.n_cons == 18


def test_assemble_rejects_bad_interval_count():
    from gasadapt.errors import InvalidGrid

    net, scn, gas, _ = single_pipe_instance(3)
    with pytest.raises(InvalidGrid):
        nlp.assemble(net, scn, gas, {"p": (ModelLevel.FRICTION, 20000.0 / 6)})


def test_derivatives_match_central_differences():
    # the Jacobian against central differences of the constraints, and the
    # Lagrangian Hessian against central differences of J^T y, at a point
    # with mixed levels and random signed flows (second differences of
    # y^T c lose too many digits to rounding to check the Hessian as tightly)
    net, gas, scn = chain5()
    state = {
        pid: (ModelLevel.of(level), pipe.length / 8)
        for level, (pid, pipe) in zip([1, 2, 3, 1, 2], net.pipes.items())
    }
    inst = nlp.assemble(net, scn, gas, state)
    rng = np.random.default_rng(7)
    x = nlp._initial_point(inst) + rng.uniform(-1.0, 1.0, inst.n_vars)
    for i in inst.flow_idx.values():
        x[i] = rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 80.0)
    y = rng.standard_normal(inst.n_cons)

    h = 1e-4
    fd_jac = np.column_stack(
        [
            (inst.constraints(x + e) - inst.constraints(x - e)) / (2 * h)
            for e in np.eye(inst.n_vars) * h
        ]
    )
    jac = inst.jacobian(x).toarray()
    assert np.max(np.abs(jac - fd_jac)) <= 1e-6 * np.max(np.abs(jac))

    h = 1e-3
    fd_hess = np.array(
        [
            (inst.jacobian(x + e).T @ y - inst.jacobian(x - e).T @ y) / (2 * h)
            for e in np.eye(inst.n_vars) * h
        ]
    )
    hess = inst.lagrangian_hessian(x, y).toarray()
    assert np.max(np.abs(hess - fd_hess)) <= 1e-6 * np.max(np.abs(hess))


def test_warm_start_interpolates_onto_refined_grid():
    net, scn, gas, state = single_pipe_instance(3, n=16)
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    fine_state = {"p": (ModelLevel.FRICTION, 20000.0 / 32)}
    fine_inst = nlp.assemble(net, scn, gas, fine_state)
    warm = nlp.solve(fine_inst, warm_start=sol)
    cold = nlp.solve(fine_inst)
    assert warm.status == nlp.STATUS_OPTIMAL
    assert warm.node_pressures["b"] == pytest.approx(
        cold.node_pressures["b"], rel=1e-6
    )
    assert warm.n_iterations <= cold.n_iterations


def test_solution_determinism():
    net, scn, gas, state = single_pipe_instance(1)
    a = nlp.solve(nlp.assemble(net, scn, gas, state))
    b = nlp.solve(nlp.assemble(net, scn, gas, state))
    assert a.node_pressures == b.node_pressures
    assert a.arc_flows == b.arc_flows
    assert np.array_equal(a.interior_pressures["p"], b.interior_pressures["p"])


# -- KKT ordering --------------------------------------------------------


@pytest.mark.parametrize("fixture", [chain5, tree12])
def test_kkt_ordering_is_a_permutation(fixture):
    net, gas, scn = fixture()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    nfree = int(np.sum(inst.lb < inst.ub))  # entry pressures are fixed
    perm = nlp.kkt_ordering(inst)
    assert np.array_equal(np.sort(perm), np.arange(nfree + inst.n_cons))


@pytest.fixture(scope="module")
def tree12_uniform_solve():
    """Cold level-1 n=512 solve on tree-12 with (K.nnz, L.nnz + U.nnz) of
    every factorization it made."""
    factors = []
    splu = nlp.spla.splu

    def recording_splu(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        factors.append((A.nnz, lu.L.nnz + lu.U.nnz))
        return lu

    net, gas, scn = tree12()
    state = {pid: (ModelLevel.FULL, p.length / 512) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nlp.spla, "splu", recording_splu)
        sol = nlp.solve(inst)
    return sol, factors


def test_kkt_fill_stays_proportional_to_nnz(tree12_uniform_solve):
    _, factors = tree12_uniform_solve
    assert factors
    for nnz, fill in factors:
        assert fill <= 4 * nnz


def test_tree12_uniform_solve_unchanged(tree12_uniform_solve):
    sol, _ = tree12_uniform_solve
    assert sol.status == nlp.STATUS_OPTIMAL
    assert sol.n_iterations == 33
    assert sol.objective == pytest.approx(TREE12_UNIFORM_OBJECTIVE, rel=1e-9)


# -- warm starts across grid and model changes -----------------------------


def _with_state(instance, level, n):
    net, scn, gas, _ = instance
    return net, scn, gas, {"p": (ModelLevel.of(level), 20000.0 / n)}


@pytest.mark.parametrize(
    "instance",
    [single_pipe_instance(1), compressor_chain()],
    ids=["single-pipe", "compressor-chain"],
)
@pytest.mark.parametrize(
    "before, after",
    [((1, 16), (1, 32)), ((3, 16), (1, 16))],
    ids=["refine", "switch-3-to-1"],
)
def test_warm_start_carries_multipliers(instance, before, after):
    net, scn, gas, state = _with_state(instance, *before)
    previous = nlp.solve(nlp.assemble(net, scn, gas, state))
    assert previous.status == nlp.STATUS_OPTIMAL
    net, scn, gas, state = _with_state(instance, *after)
    inst = nlp.assemble(net, scn, gas, state)
    cold = nlp.solve(inst)

    # the multipliers carried onto the new instance are close to its own
    carried = [np.zeros(inst.n_cons), np.zeros(inst.n_vars), np.zeros(inst.n_vars)]
    nlp._warm_multipliers(inst, previous.duals, *carried)
    converged = [np.zeros(inst.n_cons), np.zeros(inst.n_vars), np.zeros(inst.n_vars)]
    nlp._warm_multipliers(inst, cold.duals, *converged)
    for got, want in zip(carried, converged):
        scale = max(1.0, np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-2 * scale)

    warm = nlp.solve(inst, warm_start=previous)
    assert warm.status == nlp.STATUS_OPTIMAL
    assert warm.n_iterations <= 5
    assert warm.objective == pytest.approx(cold.objective, rel=1e-8)
    for node, p in cold.node_pressures.items():
        assert warm.node_pressures[node] == pytest.approx(p, rel=1e-8)


def test_warm_start_from_own_solution_stops_at_first_check():
    # the carried multipliers make the KKT error of the warm start point
    # meet the tolerance before any Newton step
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    cold = nlp.solve(inst)
    warm = nlp.solve(inst, warm_start=cold)
    assert warm.status == nlp.STATUS_OPTIMAL
    assert warm.n_iterations == 1


def test_chain5_adaptive_run_solve_count():
    net, gas, scn = chain5()
    _, state = run(net, scn, gas, AdaptiveConfig())
    assert len(state.trace) == 13

"""NLP assembly and interior-point solver against closed-form oracles."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from gasadapt import estimators, fileio, nlp
from gasadapt.controller import AdaptiveConfig, run
from gasadapt.errors import ValidationError
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
)

from oracles import mass_balance_residual

# objective of the cold level-1 n=512 solve on tree-12
TREE12_UNIFORM_OBJECTIVE = 1.0719919384122125
# and of the adaptive run on tree-12 with the default AdaptiveConfig
TREE12_ADAPTIVE_OBJECTIVE = 1.0720086507443654

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
        Grid(20000.0 / 16, 16),
    )
    assert sol.node_pressures["b"] == pytest.approx(profile[-1], rel=1e-6)
    assert sol.objective == 0.0


def test_single_pipe_interior_matches_ivp_profile():
    net, scn, gas, state = single_pipe_instance(3)
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    profile = integrate(
        ModelLevel.FRICTION, net.pipes["p"], gas, 60e5, 50.0, Grid(20000.0 / 16, 16)
    )
    assert sol.interior_pressures["p"] == pytest.approx(
        profile[1:-1], rel=1e-6
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
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    assert sol.status == nlp.STATUS_OPTIMAL
    assert sol.kkt_error <= 1e-8


def test_assemble_dimensions():
    net, scn, gas, state = single_pipe_instance(3, n=16)
    inst = nlp.assemble(net, scn, gas, state)
    # 2 node pressures + 1 flow + 15 interior pressures
    assert inst.n_vars == 18
    # the mass balance of a (b's is implied) + 16 pipe gridpoint relations
    assert inst.n_cons == 17


def test_assemble_rejects_a_network_that_is_not_connected():
    # the balances of each component imply one of its own, so leaving out
    # only the last node's would leave J rank-deficient; two single-pipe
    # networks side by side would otherwise solve as one, so no such network
    # reaches assemble: it fails where it is built
    net, *_ = single_pipe_instance(3)
    nodes = [Node("c", "entry", 60e5, 60e5), Node("d", "exit", 1e5, 1e7)]
    with pytest.raises(ValidationError, match="^network is not connected$"):
        Network(
            [*net.nodes.values(), *nodes],
            [*net.pipes.values(), Pipe("p2", "c", "d", 20000.0, 0.6, 0.011)],
        )


def test_assemble_rejects_a_scenario_out_of_balance():
    # the balances left in the NLP hold while the last node's does not: the
    # solve would end at a local optimum with node b off by 10 kg/s
    net, _, gas, state = single_pipe_instance(3)
    with pytest.raises(ValidationError, match="^global imbalance -10.0$"):
        nlp.assemble(net, Scenario({"a": -50.0, "b": 40.0}), gas, state)


@pytest.mark.parametrize("case", ["chain5", "tree12", "mesh-7x8"])
def test_constraint_jacobian_has_full_row_rank(case, grid_mesh):
    # at the level-1 n = 8 optimum, J over the free variables has rank
    # n_cons: smallest singular values 7.3e-2, 4.7e-2 and 5.7e-4. A balance
    # row for every node would make it n_cons - 1
    build = {"chain5": chain5, "tree12": tree12}
    net, gas, scn = build[case]() if case in build else grid_mesh(7, 8)
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    sol = nlp.solve(inst)
    assert sol.status == nlp.STATUS_OPTIMAL
    J = jacobian_matrix(inst, inst.jacobian(sol.iterate.x)).toarray()
    assert np.linalg.matrix_rank(J[:, inst.lb < inst.ub]) == inst.n_cons


def _tree12_with(record, **changes):
    """Tree-12 with `changes` applied to its first node (record "node") or
    first pipe (record "pipe")."""
    net, gas, scn = tree12()
    nodes, pipes = list(net.nodes.values()), list(net.pipes.values())
    edited = nodes if record == "node" else pipes
    edited[0] = dataclasses.replace(edited[0], **changes)
    return Network(nodes, pipes, net.compressors.values()), gas, scn


@pytest.mark.parametrize(
    "record, field", [("pipe", "slope"), ("node", "elevation")]
)
def test_nan_in_a_network_built_in_code_fails_validation(record, field):
    # a NaN slope passed validation, and with every estimate NaN the loop
    # refined every pipe in every round until memory ran out, so neither
    # assemble nor run can be handed such a network
    with pytest.raises(ValidationError, match=f"{field} nan is not finite"):
        _tree12_with(record, **{field: float("nan")})


@pytest.mark.parametrize("fixture", [chain5, tree12])
def test_linear_row_multipliers_are_unique(fixture):
    # a cold solve and one warm-started from another model and grid end at
    # the same multipliers of the balances and couplings (4.9e-9 apart);
    # were they fixed only up to a shift, they would differ by up to 5.9e-3
    net, gas, scn = fixture()
    coarse = {pid: (ModelLevel.FRICTION, p.length / 32) for pid, p in net.pipes.items()}
    state = {pid: (ModelLevel.FULL, p.length / 16) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    cold = nlp.solve(inst)
    warm = nlp.solve(inst, warm_start=nlp.solve(nlp.assemble(net, scn, gas, coarse)))
    assert cold.status == warm.status == nlp.STATUS_OPTIMAL
    n_lin = inst.n_lin
    y_cold, y_warm = cold.iterate.y[:n_lin], warm.iterate.y[:n_lin]
    assert np.max(np.abs(y_cold - y_warm)) <= 1e-6


@pytest.mark.parametrize(
    "h",
    [20000.0 / 6, -20000.0 / 8, 0.0, float("nan"), float("inf")],
    ids=["not-a-multiple-of-4", "negative", "zero", "nan", "infinite"],
)
def test_assemble_rejects_bad_interval_count(h):
    from gasadapt.errors import InvalidGrid

    net, scn, gas, _ = single_pipe_instance(3)
    with pytest.raises(InvalidGrid):
        nlp.assemble(net, scn, gas, {"p": (ModelLevel.FRICTION, h)})


def per_pipe_build(net, scn, counts):
    """The layout of `assemble`, built variable by variable, pipe by pipe and
    row by row, for the given interval count of each pipe: the pressures
    [from-node, interior range, to-node] of each pipe's gridpoints, and the
    mass balance of each node but the last and the coupling of each
    compressor."""
    nodes, pipes = list(net.nodes.values()), list(net.pipes.values())
    comps = list(net.compressors.values())
    arcs = pipes + comps
    bar = nlp.PRESSURE_SCALE
    node = {n.id: i for i, n in enumerate(nodes)}
    flow = {a.id: len(nodes) + i for i, a in enumerate(arcs)}
    lift = {c.id: len(nodes) + len(arcs) + i for i, c in enumerate(comps)}
    lb = [max(n.pressure_min, nlp.PRESSURE_FLOOR) / bar for n in nodes]
    lb += [a.flow_min for a in arcs] + [0.0] * len(comps)
    ub = [n.pressure_max / bar for n in nodes]
    ub += [a.flow_max for a in arcs] + [c.lift_max / bar for c in comps]
    grad = [0.0] * (len(nodes) + len(arcs)) + [c.cost_coeff * bar for c in comps]
    want = {key: [] for key in ("ipkm1", "ipk", "iq", "inner", "first", "last")}
    ends, interior = [], {}
    for pipe, n in zip(pipes, counts):
        interior[pipe.id] = list(range(len(lb), len(lb) + n - 1))
        lb += [nlp.PRESSURE_FLOOR / bar] * (n - 1)
        ub += [np.inf] * (n - 1)
        grad += [0.0] * (n - 1)
        p = [node[pipe.from_node], *interior[pipe.id], node[pipe.to_node]]
        relation = len(want["ipk"])
        want["first"].append(relation)
        want["last"].append(relation + n - 1)
        want["inner"] += range(relation, relation + n - 1)
        want["ipkm1"] += p[:-1]
        want["ipk"] += p[1:]
        want["iq"] += [flow[pipe.id]] * n
        ends.append((p[0], p[-1], flow[pipe.id]))
    A = np.zeros((len(nodes) - 1 + len(comps), len(lb)))
    for row, n in enumerate(nodes[:-1]):
        for arc in arcs:
            A[row, flow[arc.id]] += (arc.to_node == n.id) - (arc.from_node == n.id)
    for row, c in enumerate(comps, len(nodes) - 1):
        A[row, [node[c.to_node], node[c.from_node], lift[c.id]]] = [1.0, -1.0, -1.0]
    b = [scn.flow_at(n.id) for n in nodes[:-1]] + [0.0] * len(comps)
    want.update(ends=np.reshape(ends, (-1, 3)).T, lb=lb, ub=ub, grad=grad,
                linear_b=b, linear_A=A, interior_idx=interior)
    return want


@pytest.mark.parametrize("case", ["chain5", "tree12", "pipeless", "mesh-7x8"])
def test_assemble_layout_matches_a_per_pipe_build(case, grid_mesh):
    # pipe k has 4 (k + 1) intervals, non-dyadic counts among them, and
    # level 1 + k mod 3
    build = {"chain5": chain5, "tree12": tree12, "pipeless": pipeless}
    net, gas, scn = build[case]() if case in build else grid_mesh(7, 8)
    counts = [4 * (k + 1) for k in range(len(net.pipes))]
    state = {
        pid: (ModelLevel.of(1 + k % 3), p.length / n)
        for k, ((pid, p), n) in enumerate(zip(net.pipes.items(), counts))
    }
    inst = nlp.assemble(net, scn, gas, state)
    want = per_pipe_build(net, scn, counts)
    A = want.pop("linear_A")
    got = {key: getattr(inst, key) for key in want}
    # the linear rows' nonzeros, row by row, as scipy's CSR form of A holds them
    m = sp.csr_matrix(A)
    outer = np.repeat(np.arange(len(m.indptr) - 1), np.diff(m.indptr))
    for got_part, want_part in zip(inst.linear, (outer, m.indices, m.data)):
        assert np.array_equal(got_part, want_part)
    assert inst.n_lin == len(A)
    assert got.pop("interior_idx").keys() == want["interior_idx"].keys()
    for pid, idx in inst.interior_idx.items():
        assert np.array_equal(idx, want["interior_idx"][pid]), pid
    for key in got:
        assert np.array_equal(got[key], want[key]), key
    assert inst.n_vars == len(want["lb"])
    assert inst.n_cons == len(want["linear_b"]) + len(want["ipk"])


def jacobian_matrix(inst, J):
    """J as a CSR matrix, by scipy's COO construction from the linear rows'
    triples `linear` and the gridpoint derivatives J of `inst.jacobian`."""
    lin_row, lin_col, lin_data = inst.linear
    rows = np.arange(inst.n_lin, inst.n_cons)
    return sp.csr_matrix(
        (
            np.concatenate([lin_data, J.ravel()]),
            (
                np.concatenate([lin_row, rows, rows, rows]),
                np.concatenate([lin_col, inst.ipkm1, inst.ipk, inst.iq]),
            ),
        ),
        shape=(inst.n_cons, inst.n_vars),
    )


def hessian_matrix(inst, W):
    """W as a CSR matrix, both triangles, by scipy's COO construction from
    the gridpoint terms W of `inst.lagrangian_hessian`."""
    h_pk_pk, h_pk_pkm1, h_q_pkm1, h_q_pk, h_qq = W
    ipk, ipkm1, iq = inst.ipk, inst.ipkm1, inst.iq
    return sp.csr_matrix(
        (
            np.concatenate(
                [h_pk_pk, h_pk_pkm1, h_pk_pkm1, h_q_pkm1, h_q_pkm1, h_q_pk, h_q_pk,
                 h_qq]
            ),
            (
                np.concatenate([ipk, ipk, ipkm1, ipkm1, iq, ipk, iq, iq]),
                np.concatenate([ipk, ipkm1, ipk, iq, ipkm1, iq, ipk, iq]),
            ),
        ),
        shape=(inst.n_vars, inst.n_vars),
    )


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
    x = nlp._initial_point(inst)[0] + rng.uniform(-1.0, 1.0, inst.n_vars)
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
    jac = jacobian_matrix(inst, inst.jacobian(x)).toarray()
    assert np.max(np.abs(jac - fd_jac)) <= 1e-6 * np.max(np.abs(jac))

    h = 1e-3
    fd_hess = np.array(
        [
            (
                jacobian_matrix(inst, inst.jacobian(x + e)).T @ y
                - jacobian_matrix(inst, inst.jacobian(x - e)).T @ y
            )
            / (2 * h)
            for e in np.eye(inst.n_vars) * h
        ]
    )
    hess = hessian_matrix(inst, inst.lagrangian_hessian(x, y)).toarray()
    assert np.max(np.abs(hess - fd_hess)) <= 1e-6 * np.max(np.abs(hess))


def test_evaluation_matches_the_gridpoint_formulas():
    # the flow terms are evaluated once per pipe and repeated to its
    # gridpoints; the residuals, J and W agree with the same formulas
    # evaluated at every gridpoint to a few ulp
    net, gas, scn = chain5()
    state = {
        pid: (ModelLevel.of(level), pipe.length / 8)
        for level, (pid, pipe) in zip([1, 2, 3, 1, 2], net.pipes.items())
    }
    inst = nlp.assemble(net, scn, gas, state)
    rng = np.random.default_rng(11)
    x = nlp._initial_point(inst)[0] + rng.uniform(-1.0, 1.0, inst.n_vars)
    for i in inst.flow_idx.values():
        x[i] = rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 80.0)
    y = rng.standard_normal(inst.n_cons)
    n_lin = inst.n_lin

    k, b = (np.repeat(c, inst.pipe_n) for c in (inst.k_coef, inst.ram_coef))
    pk, pkm1, q = x[inst.ipk], x[inst.ipkm1], x[inst.iq]
    delta = pk - pkm1
    s = np.sqrt(q * q + nlp.FLOW_SMOOTHING**2)
    phi, dphi = q * s, s + q * q / s
    d2phi = q * (2.0 * q * q + 3.0 * nlp.FLOW_SMOOTHING**2) / s**3
    ram = 1.0 - b * q * q / pk**2
    r = delta * ram + k * phi / pk + inst.grav_coef * pk
    J = [
        -ram,
        ram + 2.0 * delta * b * q * q / pk**3 - k * phi / pk**2 + inst.grav_coef,
        -2.0 * delta * b * q / pk**2 + k * dphi / pk,
    ]
    inv_pk = 1.0 / pk
    y2 = y[n_lin:] * inv_pk * inv_pk
    y3 = y2 * inv_pk
    W = [
        y3 * (4.0 * b * q * q - 6.0 * delta * b * q * q * inv_pk + 2.0 * k * phi),
        y3 * (-2.0 * b * q * q),
        y2 * (2.0 * b * q),
        y2 * (-2.0 * b * q + 4.0 * delta * b * q * inv_pk - k * dphi),
        y2 * (-2.0 * delta * b + k * d2phi * pk),
    ]
    np.testing.assert_array_max_ulp(inst.constraints(x)[n_lin:], r, maxulp=4)
    np.testing.assert_array_max_ulp(inst.jacobian(x), np.array(J), maxulp=4)
    np.testing.assert_array_max_ulp(
        inst.lagrangian_hessian(x, y), np.array(W), maxulp=4
    )


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


def test_solution_names_the_grid_it_was_solved_on():
    # each pipe at its own level and interval count; the solution keeps a
    # copy of the map, which a caller may go on to change
    net, gas, scn = chain5()
    state = {
        pid: (ModelLevel.of(1 + k % 3), p.length / (4 * (k + 1)))
        for k, (pid, p) in enumerate(net.pipes.items())
    }
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    assert sol.pipe_states == state
    assert sol.pipe_states is not state


# -- KKT factorization: pipe bands plus a border ----------------------------


def kkt_reference(inst, W, J, sigma, delta_w):
    """K = [[W + diag(sigma + delta_w), J^T], [J, 0]] over the free
    variables, built by sp.bmat from the gridpoint derivatives W and J."""
    free = np.flatnonzero(inst.lb < inst.ub)
    Jf = jacobian_matrix(inst, J)[:, free]
    W = hessian_matrix(inst, W)
    return sp.bmat(
        [[W[free][:, free] + sp.diags(sigma[free] + delta_w), Jf.T], [Jf, None]],
        format="csc",
    )


def step_residual(inst, kkt, W, J, sigma, delta_w, rng):
    """The normwise backward error max |K z - rhs| / (||K||_inf max |z| +
    max |rhs|) of the step z that `kkt` takes at delta_w for a random
    right-hand side, against the sp.bmat reference K: a residual relative
    to max |rhs| alone grows with the condition of K and the draw."""
    # c in the range of J, as the linearization of a feasible problem has it
    v = np.zeros(inst.n_vars)
    v[kkt.free_idx] = rng.standard_normal(len(kkt.free_idx))
    rd, c = rng.standard_normal(inst.n_vars), jacobian_matrix(inst, J) @ v
    kkt.delta_w = delta_w
    dx, dy = kkt.step(W, J, sigma, rd, c)
    assert kkt.delta_w == delta_w / 3.0  # factored at delta_w, no retry
    assert np.all(np.delete(dx, kkt.free_idx) == 0.0)
    rhs = -np.concatenate([rd[kkt.free_idx], c])
    z = np.concatenate([dx[kkt.free_idx], dy])
    K = kkt_reference(inst, W, J, sigma, delta_w)
    k_norm = abs(K).sum(axis=1).max()  # the largest row sum
    residual = np.max(np.abs(K @ z - rhs))
    return residual / (k_norm * np.max(np.abs(z)) + np.max(np.abs(rhs)))


@pytest.mark.parametrize("fixture", [chain5, tree12])
def test_kkt_ordering_is_a_permutation(fixture):
    # the band rows and the border rows partition K's rows, and within the
    # band K has half-width 2
    net, gas, scn = fixture()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    nfree = int(np.sum(inst.lb < inst.ub))  # entry pressures are fixed
    kkt = nlp.KktSystem(inst)
    order = np.concatenate([kkt.band, kkt.border])
    assert np.array_equal(np.sort(order), np.arange(nfree + inst.n_cons))
    # r_1..r_7 and p_1..p_7 of each pipe
    assert len(kkt.band) == 2 * 7 * len(net.pipes)

    # random values: the sparse sum in kkt_reference drops explicit zeros
    rng = np.random.default_rng(1)
    x = nlp._initial_point(inst)[0] + rng.uniform(-1.0, 1.0, inst.n_vars)
    W = inst.lagrangian_hessian(x, rng.standard_normal(inst.n_cons))
    K = kkt_reference(inst, W, inst.jacobian(x), np.ones(inst.n_vars), 0.0).tocoo()
    in_band = np.full(K.shape[0], -1)
    in_band[kkt.band] = np.arange(len(kkt.band))
    rows, cols = in_band[K.row], in_band[K.col]
    both = (rows >= 0) & (cols >= 0)
    assert np.max(np.abs(rows[both] - cols[both])) == 2


def pipeless():
    """The network of test_network_without_pipes_converges, as (net, gas, scn)."""
    net = Network(
        [Node("a", "entry", 40e5, 40e5), Node("b", "exit", 41e5, 1e7)],
        [],
        [Compressor("c", "a", "b", lift_max=30e5, cost_coeff=1.0)],
    )
    return net, GasParameters(), Scenario({"a": -50.0, "b": 50.0})


@pytest.mark.parametrize(
    "fixture, level",
    [(chain5, 1), (chain5, 2), (chain5, 3), (tree12, 1), (tree12, 2), (tree12, 3),
     (pipeless, 1)],
)
def test_fixed_patterns_match_coo_construction(fixture, level):
    # the products the solver forms from the gridpoint derivatives, J^T y and
    # the refinement's K z, against those of scipy's COO construction from
    # the same values, and the step of the band-and-border solve against the
    # sp.bmat K
    net, gas, scn = fixture()
    state = {pid: (ModelLevel.of(level), p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    n, m = inst.n_vars, inst.n_cons
    rng = np.random.default_rng(level)
    x = nlp._initial_point(inst)[0] + rng.uniform(-1.0, 1.0, n)
    y = rng.standard_normal(m)
    sigma = rng.uniform(0.0, 10.0, n)
    delta_w = rng.uniform(0.0, 1e-3)

    J = inst.jacobian(x)
    W = inst.lagrangian_hessian(x, y)
    kkt = nlp.KktSystem(inst)
    z = rng.standard_normal(len(kkt.free_idx) + m)
    for got, want in [
        (inst.jacobian_t_product(J, y), jacobian_matrix(inst, J).T @ y),
        (kkt._product(W, J, sigma, delta_w, z),
         kkt_reference(inst, W, J, sigma, delta_w) @ z),
    ]:
        scale = np.max(np.abs(want), initial=0.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * scale)

    assert step_residual(inst, kkt, W, J, sigma, delta_w, rng) <= 1e-11


@pytest.mark.parametrize("fixture", [chain5, tree12, pipeless])
def test_step_on_the_smallest_and_the_empty_band(fixture):
    # n = 4 intervals leave each pipe a band of r_1, p_1, ..., r_3, p_3; a
    # network without pipes has no band, and S is all of K
    net, gas, scn = fixture()
    state = {pid: (ModelLevel.FULL, p.length / 4) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    kkt = nlp.KktSystem(inst)
    assert len(kkt.band) == 6 * len(net.pipes)
    rng = np.random.default_rng(4)
    x = nlp._initial_point(inst)[0]
    W = inst.lagrangian_hessian(x, rng.standard_normal(inst.n_cons))
    sigma = rng.uniform(1.0, 10.0, inst.n_vars)
    assert step_residual(inst, kkt, W, inst.jacobian(x), sigma, 0.0, rng) <= 1e-11


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("fixture", [chain5, tree12])
def test_band_solve_matches_the_dense_band(fixture, level, n):
    # at derivatives of a random point: C, the band rows of K at the border,
    # as filled from the gridpoint derivatives against the sp.bmat K, and
    # B^-1 [C | r] by the two triangular band solves against numpy's dense
    # solve with the band of that K, which couples no two pipes
    net, gas, scn = fixture()
    state = {pid: (ModelLevel.of(level), p.length / n) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    rng = np.random.default_rng(10 * n + level)
    x = nlp._initial_point(inst)[0] + rng.uniform(-1.0, 1.0, inst.n_vars)
    J = inst.jacobian(x)
    W = inst.lagrangian_hessian(x, rng.standard_normal(inst.n_cons))
    sigma = rng.uniform(0.0, 10.0, inst.n_vars)
    kkt = nlp.KktSystem(inst)
    diag = np.concatenate([sigma[kkt.free_idx], np.zeros(inst.n_cons)])  # K's, but W
    band, c_p, c_r, c_ends, _ = kkt._parts(W, J, diag)

    K = kkt_reference(inst, W, J, sigma, 0.0).toarray()
    rows = np.concatenate([kkt.band_p, kkt.band_r])
    n_band = len(kkt.band_p)
    assert n_band == (n - 1) * len(net.pipes)
    # C by slot, its pressure rows C_p and relation rows C_r, 4 x n_band each
    C_p, C_r = np.zeros((2, 4, n_band))
    C_p[0], C_r[0], C_r[2] = c_p, c_r[0], c_r[1]
    for slot in range(1, 4):
        C_p[slot, kkt.end_rows[slot - 1]] = c_ends[slot - 1]
    row_slots = np.repeat(kkt.slots, kkt.band_rows, axis=1)
    C = np.zeros((2 * n_band, len(kkt.border) + 1))  # a fixed slot: last column
    for slot in range(4):
        np.add.at(
            C,
            (np.arange(2 * n_band), np.tile(row_slots[slot], 2)),
            np.concatenate([C_p[slot], C_r[slot]]),
        )
    np.testing.assert_array_equal(C[:, :-1], K[np.ix_(rows, kkt.border)])

    def band_solve(b_p, b_r):
        """B^-1 [b_p; b_r]: A x = b_r, then A^T y = b_p - H x."""
        x = nlp._lower_solve(band, b_r)
        return x, nlp._lower_solve(band, b_p - nlp._h_product(band, x), "T")

    B = K[np.ix_(rows, rows)]
    b_p = np.vstack([C_p, rng.standard_normal(n_band)])
    b_r = np.vstack([C_r, rng.standard_normal(n_band)])
    want = np.linalg.solve(B, np.hstack([b_p, b_r]).T)
    got = np.hstack(band_solve(b_p, b_r)).T
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("delta_w", [0.0, 1e-4])
@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("fixture", [chain5, tree12])
def test_schur_complement_matches_the_dense_one(
    fixture, level, n, delta_w, monkeypatch
):
    # the S that _factor hands to SuperLU, from the band sums and the end
    # entries of C, against D - C B^-1 C^T taken densely from the sp.bmat K
    net, gas, scn = fixture()
    state = {pid: (ModelLevel.of(level), p.length / n) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    rng = np.random.default_rng(100 * n + level)
    x = nlp._initial_point(inst)[0] + rng.uniform(-1.0, 1.0, inst.n_vars)
    # signed flows large enough that the ram term of W(p_1, p_from) shows
    for i in inst.flow_idx.values():
        x[i] = rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 80.0)
    J = inst.jacobian(x)
    W = inst.lagrangian_hessian(x, rng.standard_normal(inst.n_cons))
    sigma = rng.uniform(0.0, 10.0, inst.n_vars)
    kkt = nlp.KktSystem(inst)
    factored = []
    splu = nlp.spla.splu

    def recording_splu(S, *args, **kwargs):
        factored.append(S.toarray())
        return splu(S, *args, **kwargs)

    monkeypatch.setattr(nlp.spla, "splu", recording_splu)
    kkt._factor(W, J, sigma, delta_w)

    K = kkt_reference(inst, W, J, sigma, delta_w).toarray()
    band, border = kkt.band, kkt.border
    C = K[np.ix_(band, border)]
    want = K[np.ix_(border, border)] - C.T @ np.linalg.solve(K[np.ix_(band, band)], C)
    (got,) = factored
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class CountingSplu:
    """Stands in for nlp.spla.splu and counts factorizations and back-solves;
    each back-solve is scaled by 1 + error."""

    def __init__(self, splu, error=0.0):
        self.splu, self.error = splu, error
        self.factorizations = self.solves = 0

    def __call__(self, A, *args, **kwargs):
        lu = self.splu(A, *args, **kwargs)
        self.factorizations += 1
        counter = self

        class Factor:
            def solve(self, rhs):
                counter.solves += 1
                return lu.solve(rhs) * (1.0 + counter.error)

        return Factor()


def test_refinement_only_when_residual_needs_it(monkeypatch):
    # refinement after every back-solve would make two per factorization
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 64) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    counter = CountingSplu(nlp.spla.splu)
    monkeypatch.setattr(nlp.spla, "splu", counter)
    sol = nlp.solve(inst)
    assert sol.status == nlp.STATUS_OPTIMAL
    assert counter.factorizations > 0
    assert counter.solves < 2 * counter.factorizations


@pytest.mark.parametrize("error, solves", [(0.0, 1), (1e-6, 2)])
def test_refinement_sharpens_an_inexact_back_solve(error, solves, monkeypatch):
    # an exact back-solve leaves a residual of rounding size and is kept; one
    # off by 1e-6 relative leaves a residual above 1e-12 relative to the
    # right-hand side, and one round of refinement brings it back
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    rng = np.random.default_rng(3)
    x = nlp._initial_point(inst)[0]
    J, W = inst.jacobian(x), inst.lagrangian_hessian(x, np.zeros(inst.n_cons))
    kkt = nlp.KktSystem(inst)
    sigma = rng.uniform(1.0, 10.0, inst.n_vars)
    counter = CountingSplu(nlp.spla.splu, error)
    monkeypatch.setattr(nlp.spla, "splu", counter)
    # the backward error against the sp.bmat K, near 1e-6 unrefined
    assert step_residual(inst, kkt, W, J, sigma, 0.0, rng) <= 1e-11
    assert (counter.factorizations, counter.solves) == (1, solves)


def test_refinement_that_fails_its_bound_raises_delta_w(monkeypatch):
    # a back-solve off by 1e-2 relative leaves 1e-4 relative after one round
    # of refinement, a backward error above its bound of 1e-10: each of the
    # 12 values of delta_w fails, and the solve stops for the factorization
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    counter = CountingSplu(nlp.spla.splu, 1e-2)
    monkeypatch.setattr(nlp.spla, "splu", counter)
    sol = nlp.solve(inst)
    assert sol.status == nlp.STATUS_ITERATION_LIMIT
    assert sol.reason == nlp.REASON_FACTORIZATION
    assert sol.n_iterations == 1
    assert (counter.factorizations, counter.solves) == (12, 24)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_step_check_of_a_drained_pipe_does_not_overflow(n):
    # 30 kg/s cannot pass 10 km of a 0.2 m pipe from 60 bar: the cold level-3
    # solve takes steps |z| near 1e190 against a KKT matrix near 1e187, where
    # k |z| exceeds a double; with warnings as errors it still returns
    net = Network(
        [Node("a", "entry", 60e5, 60e5), Node("b", "exit", 1e5, 100e5)],
        [Pipe("p", "a", "b", length=10000.0, diameter=0.2, friction=0.01)],
    )
    scn = Scenario({"a": -30.0, "b": 30.0})
    state = {"p": (ModelLevel.FRICTION, 1e4 / n)}
    inst = nlp.assemble(net, scn, GasParameters(), state)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = nlp.solve(inst)
    assert sol.status != nlp.STATUS_OPTIMAL


def test_infinite_step_raises_delta_w(monkeypatch):
    # a step with an infinite entry fails its check however small its
    # residual: each of the 12 values of delta_w fails, and the solve stops
    # for the factorization
    def infinite_solve(kkt, factors, r):
        return np.where(r > 0.0, np.inf, 0.0)

    def zero_product(kkt, W, J, sigma, delta_w, z):
        return np.zeros_like(z)

    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    monkeypatch.setattr(nlp.KktSystem, "_solve", infinite_solve)
    monkeypatch.setattr(nlp.KktSystem, "_product", zero_product)
    sol = nlp.solve(inst)
    assert sol.status == nlp.STATUS_ITERATION_LIMIT
    assert sol.reason == nlp.REASON_FACTORIZATION
    assert sol.n_iterations == 1


@pytest.mark.parametrize("error, solves", [(0.0, 1), (1e-6, 2)])
def test_band_solves_per_factorization_and_back_solve(error, solves, monkeypatch):
    # one two-column A^-1 per factorization for u, and per back-solve A^-1 r_r,
    # from which the band pressures follow, and A^-T for the band relations:
    # three band solves for a step without refinement, two more with it
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 64) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    rng = np.random.default_rng(5)
    x = nlp._initial_point(inst)[0]
    J = inst.jacobian(x)
    W = inst.lagrangian_hessian(x, rng.standard_normal(inst.n_cons))
    sigma = rng.uniform(1.0, 10.0, inst.n_vars)
    kkt = nlp.KktSystem(inst)
    calls = []
    dtbtrs = nlp.lapack.dtbtrs

    def counting_dtbtrs(*args, trans="N", **kwargs):
        calls.append(trans)
        return dtbtrs(*args, trans=trans, **kwargs)

    counter = CountingSplu(nlp.spla.splu, error)
    monkeypatch.setattr(nlp.spla, "splu", counter)
    monkeypatch.setattr(nlp.lapack, "dtbtrs", counting_dtbtrs)
    assert step_residual(inst, kkt, W, J, sigma, 0.0, rng) <= 1e-11
    assert (counter.factorizations, counter.solves) == (1, solves)
    assert calls == ["N"] + ["N", "T"] * solves


def test_factorization_failure_names_its_reason(monkeypatch):
    def failing_splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    monkeypatch.setattr(nlp.spla, "splu", failing_splu)
    sol = nlp.solve(inst)
    assert sol.status == nlp.STATUS_ITERATION_LIMIT
    assert sol.n_iterations == 1
    assert sol.reason == nlp.REASON_FACTORIZATION
    assert "factorization" in sol.reason


def test_factorization_value_error_is_not_retried(monkeypatch):
    # splu raises ValueError only for a matrix it cannot take, such as a
    # non-square one: a programming error, not a singular factor that a
    # larger delta_w could mend, so the solve raises it
    calls = []

    def rejecting_splu(*args, **kwargs):
        calls.append(1)
        raise ValueError("can only factor square matrices")

    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    monkeypatch.setattr(nlp.spla, "splu", rejecting_splu)
    with pytest.raises(ValueError, match="square"):
        nlp.solve(inst)
    assert len(calls) == 1


def test_singular_band_names_the_factorization_reason(monkeypatch):
    # an exactly zero dr_k/dp_k on the diagonal of A leaves the band singular
    # at every delta_w: each of the 12 increases of delta_w meets it again,
    # and S is never factored
    jacobian, factor = nlp.NlpInstance.jacobian, nlp.KktSystem._factor
    factored_at = []

    def singular_jacobian(inst, x):
        J = jacobian(inst, x)
        J[1, 0] = 0.0  # r_1 of the first pipe at its p_1
        return J

    def recording_factor(kkt, W, J, sigma, delta_w):
        factored_at.append(delta_w)
        return factor(kkt, W, J, sigma, delta_w)

    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    counter = CountingSplu(nlp.spla.splu)
    monkeypatch.setattr(nlp.spla, "splu", counter)
    monkeypatch.setattr(nlp.NlpInstance, "jacobian", singular_jacobian)
    monkeypatch.setattr(nlp.KktSystem, "_factor", recording_factor)
    sol = nlp.solve(inst)
    assert sol.status == nlp.STATUS_ITERATION_LIMIT
    assert sol.n_iterations == 1
    assert sol.reason == nlp.REASON_FACTORIZATION
    assert factored_at == pytest.approx([0.0] + [10.0**k for k in range(-8, 3)])
    assert counter.factorizations == 0


def test_non_finite_kkt_error_stops_at_the_iteration_limit(monkeypatch):
    # a NaN says nothing of the problem: no Infeasible verdict from it, even
    # at the first check, where no constraint violation has been seen yet
    def nan_jacobian(inst, x):
        return np.full((3, len(inst.ipk)), np.nan)

    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    monkeypatch.setattr(nlp.NlpInstance, "jacobian", nan_jacobian)
    sol = nlp.solve(inst)
    assert sol.status == nlp.STATUS_ITERATION_LIMIT
    assert sol.reason == nlp.REASON_NOT_FINITE
    assert sol.n_iterations == 1


def test_each_stop_has_its_reason(monkeypatch):
    net, scn, gas, state = compressor_chain()
    inst = nlp.assemble(net, scn, gas, state)
    assert nlp.solve(inst).reason == nlp.REASON_CONVERGED
    monkeypatch.setattr(nlp, "MAX_ITERATIONS", 2)
    limited = nlp.solve(inst)
    monkeypatch.undo()
    assert limited.status == nlp.STATUS_ITERATION_LIMIT
    assert limited.reason == nlp.REASON_ITERATION_LIMIT
    net, scn, gas, state = compressor_chain(lift_max=1e5)
    infeasible = nlp.solve(nlp.assemble(net, scn, gas, state))
    assert infeasible.status == nlp.STATUS_INFEASIBLE
    assert infeasible.reason == nlp.REASON_STALLED


def test_limit_right_after_the_converging_step_is_an_optimum(monkeypatch):
    # a solve that converges at its k-th iteration took its last step in
    # iteration k - 1; stopped there by the limit, it reads the same iterate
    # as converged
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    cold = nlp.solve(inst)
    assert cold.reason == nlp.REASON_CONVERGED
    monkeypatch.setattr(nlp, "MAX_ITERATIONS", cold.n_iterations - 1)
    limited = nlp.solve(inst)
    assert limited.status == nlp.STATUS_OPTIMAL
    assert limited.reason == nlp.REASON_CONVERGED
    assert limited.n_iterations == cold.n_iterations - 1
    assert np.array_equal(limited.iterate.x, cold.iterate.x)


def test_solve_reuses_the_last_kkt_error(monkeypatch):
    # J and c are evaluated once per iterate: a decrease of mu keeps them, a
    # converged solve takes the KKT error of its last iterate from the loop,
    # and a solve stopped by the limit right after a step uses those of the
    # new iterate
    calls = []
    jacobian = nlp.NlpInstance.jacobian

    def counting_jacobian(inst, x):
        calls.append(x.copy())
        return jacobian(inst, x)

    monkeypatch.setattr(nlp.NlpInstance, "jacobian", counting_jacobian)
    net, scn, gas, state = compressor_chain()
    inst = nlp.assemble(net, scn, gas, state)
    sol = nlp.solve(inst)
    assert sol.status == nlp.STATUS_OPTIMAL
    assert len({x.tobytes() for x in calls}) == len(calls)
    calls.clear()
    monkeypatch.setattr(nlp, "MAX_ITERATIONS", 1)
    limited = nlp.solve(inst)
    assert limited.status == nlp.STATUS_ITERATION_LIMIT
    assert len(calls) == 2
    assert not np.array_equal(calls[0], calls[1])


@pytest.mark.parametrize("case", ["chain5", "tree12", "mesh-7x8"])
def test_linear_products_match_scipy_csr_products_bitwise(case, grid_mesh):
    # the triples sum each row of A x and of A^T y in the order in which
    # scipy's CSR products sum it; values of widely spread magnitude make
    # any other order round differently
    build = {"chain5": chain5, "tree12": tree12}
    net, gas, scn = build[case]() if case in build else grid_mesh(7, 8)
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    A = sp.csr_matrix(per_pipe_build(net, scn, inst.pipe_n)["linear_A"])
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.standard_normal(inst.n_vars) * 10.0 ** rng.uniform(-8, 8, inst.n_vars)
        y = rng.standard_normal(inst.n_lin) * 10.0 ** rng.uniform(-8, 8, inst.n_lin)
        assert np.array_equal(inst.linear_product(x), A @ x)
        assert np.array_equal(inst.linear_t_product(y), A.T.tocsr() @ y)


def recorded_solve(monkeypatch, inst):
    """The solve of `inst`, the x of each constraints call, and per Newton
    step the iterate x (from the Hessian call before it) and the c it was
    given."""
    calls, steps = [], []
    constraints = nlp.NlpInstance.constraints
    hessian = nlp.NlpInstance.lagrangian_hessian
    step = nlp.KktSystem.step

    def counting_constraints(self, x):
        calls.append(x.copy())
        return constraints(self, x)

    def recording_hessian(self, x, y):
        steps.append([x.copy()])
        return hessian(self, x, y)

    def recording_step(self, W, J, sigma, rd, c):
        steps[-1].append(c.copy())
        return step(self, W, J, sigma, rd, c)

    monkeypatch.setattr(nlp.NlpInstance, "constraints", counting_constraints)
    monkeypatch.setattr(nlp.NlpInstance, "lagrangian_hessian", recording_hessian)
    monkeypatch.setattr(nlp.KktSystem, "step", recording_step)
    sol = nlp.solve(inst)
    monkeypatch.undo()
    return sol, calls, steps


def test_constraints_evaluated_once_per_iterate(monkeypatch):
    # the accepted line-search trial's values are the next iterate's, and a
    # decrease of mu evaluates nothing: 24 calls in 33 iterations, 45 when
    # each iterate was evaluated again
    net, gas, scn = tree12()
    state = {pid: (ModelLevel.FULL, p.length / 512) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    sol, calls, steps = recorded_solve(monkeypatch, inst)
    assert sol.status == nlp.STATUS_OPTIMAL
    assert (sol.n_iterations, len(calls)) == (33, 24)
    for x, c in steps:
        assert np.array_equal(c, inst.constraints(x))


def test_carried_constraints_are_fresh_where_inside_moves_x(monkeypatch):
    # on the chain whose lift bound is too small, the iterate keeps landing
    # on the machine-precision edge of a bound, so the line search's values
    # are stale there and the iterate is evaluated again
    net, scn, gas, state = compressor_chain(lift_max=1e5)
    inst = nlp.assemble(net, scn, gas, state)
    sol, calls, steps = recorded_solve(monkeypatch, inst)
    assert sol.status == nlp.STATUS_INFEASIBLE
    finite = np.isfinite(inst.ub)
    edge = inst.ub[finite] - np.finfo(float).eps * np.maximum(1.0, inst.ub[finite])
    assert any(np.any(x[finite] == edge) for x, _ in steps)
    for x, c in steps:
        assert np.array_equal(c, inst.constraints(x))


@pytest.fixture(scope="module")
def tree12_uniform_solve():
    """Cold level-1 n=512 solve on tree-12 with its instance and the
    L.nnz + U.nnz of every factorization of S it made."""
    factors = []
    splu = nlp.spla.splu

    def recording_splu(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        factors.append(lu.L.nnz + lu.U.nnz)
        return lu

    net, gas, scn = tree12()
    state = {pid: (ModelLevel.FULL, p.length / 512) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nlp.spla, "splu", recording_splu)
        sol = nlp.solve(inst)
    return sol, factors, inst


def test_kkt_fill_stays_proportional_to_nnz(tree12_uniform_solve):
    # the band keeps A, H, C and u = A^-1 C_r, about 4 nonzeros per band
    # row, within the 7 per band row of a band LU; S is factored by SuperLU
    _, factors, inst = tree12_uniform_solve
    n_band = len(nlp.KktSystem(inst).band)
    x = nlp._initial_point(inst)[0]
    W = inst.lagrangian_hessian(x, np.ones(inst.n_cons))
    nnz = kkt_reference(inst, W, inst.jacobian(x), np.ones(inst.n_vars), 0.0).nnz
    assert factors
    for fill in factors:
        assert 7 * n_band + fill <= 4 * nnz


def test_tree12_uniform_solve_unchanged(tree12_uniform_solve):
    sol, _, _ = tree12_uniform_solve
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
    _, y, z = nlp._initial_point(inst, previous.iterate)
    carried = [y, *z]
    _, y, z = nlp._initial_point(inst, cold.iterate)
    converged = [y, *z]
    for got, want in zip(carried, converged):
        scale = max(1.0, np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-2 * scale)

    warm = nlp.solve(inst, warm_start=previous)
    assert warm.status == nlp.STATUS_OPTIMAL
    assert warm.n_iterations <= 5
    assert warm.objective == pytest.approx(cold.objective, rel=1e-8)
    for node, p in cold.node_pressures.items():
        assert warm.node_pressures[node] == pytest.approx(p, rel=1e-8)


def per_pipe_regrid(values, n_old, k0, k1, n_new):
    """One `np.interp` per pipe: its values at k/n_old, k = k0..n_old - k1,
    onto k/n_new, k = 1..n_new, the end values held."""
    out, start = [np.zeros(0)], 0
    for m, n in zip(n_old, n_new):
        old_pos = np.arange(k0, m - k1 + 1) / m
        old_values = values[start : start + len(old_pos)]
        out.append(np.interp(np.arange(1, n + 1) / n, old_pos, old_values))
        start += len(old_pos)
    return np.concatenate(out)


@pytest.mark.parametrize("k0, k1", [(0, 0), (1, 0), (1, 1)], ids=["x", "y", "z"])
@pytest.mark.parametrize(
    "n_old, n_new",
    [
        ([4, 8, 16, 4, 64], [8, 4, 16, 32, 8]),  # refine, coarsen, equal, x8, /8
        ([12, 20, 8, 12], [24, 20, 12, 4]),
        ([4 + 4 * i for i in range(6)], [8, 4, 24, 16, 20, 96]),
        ([], []),  # a pipeless network
    ],
    ids=["powers-of-two", "12-and-20", "4+4i", "pipeless"],
)
def test_regrid_matches_a_per_pipe_interpolation(k0, k1, n_old, n_new):
    # smooth profiles, as a solve's pressures and multipliers are, and a
    # different one per pipe, so that a new point interpolated across two
    # pipes shows
    n_old, n_new = np.array(n_old, dtype=int), np.array(n_new, dtype=int)
    values = [np.zeros(0)] + [
        50.0 + 10.0 * np.cos(3.0 * (i + np.arange(k0, m - k1 + 1) / m))
        for i, m in enumerate(n_old)
    ]
    # nlp._regrid takes each pipe's values at k = 0..n_old, so a multiplier
    # with none at an end repeats its nearest value there
    profile = [np.pad(v, (k0, k1), mode="edge") for v in values[1:]]
    got = nlp._regrid([np.concatenate([np.zeros(0), *profile])], n_old, n_new)[0]
    values = np.concatenate(values)
    want = per_pipe_regrid(values, n_old, k0, k1, n_new)
    if all(n & (n - 1) == 0 for n in np.r_[n_old, n_new]):
        assert np.array_equal(got, want)
    else:  # the moved gridpoints round at the 1e-16 level
        np.testing.assert_array_max_ulp(got, want, maxulp=8)


def test_iterate_keeps_both_bound_rows():
    # the solver keeps multipliers only at finite bounds of free variables;
    # the iterate lays them out as a lower and an upper row over all
    # variables, zero at infinite bounds and at fixed variables
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 8) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    z = nlp.solve(inst).iterate.z
    assert z.shape == (2, inst.n_vars)
    fixed = inst.lb == inst.ub
    assert fixed.any() and np.isinf(inst.ub).any()
    assert np.all(z[:, fixed] == 0.0)
    assert np.all(z[1, np.isinf(inst.ub)] == 0.0)
    has = np.isfinite(np.stack([inst.lb, inst.ub])) & ~fixed
    assert np.all(z[has] > 0.0)


def test_warm_start_from_another_network_or_a_file_is_rejected(tmp_path):
    # a solution read from a file carries no iterate to start from
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 4) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    chain = nlp.solve(inst)
    fileio.save_solution(chain, tmp_path / "sol.json")
    loaded = fileio.load_solution(tmp_path / "sol.json")
    with pytest.raises(ValueError, match="iterate of a solve on this network"):
        nlp.solve(inst, warm_start=loaded)
    net, gas, scn = tree12()
    state = {pid: (ModelLevel.FULL, p.length / 4) for pid, p in net.pipes.items()}
    with pytest.raises(ValueError, match="iterate of a solve on this network"):
        nlp.solve(nlp.assemble(net, scn, gas, state), warm_start=chain)


def test_refine_warm_start_keeps_the_old_gridpoints_bit_for_bit():
    # n -> 2n: every other new interior pressure is an old gridpoint, and
    # the scalar variables carry over as they are
    net, gas, scn = chain5()
    coarse, fine = {}, {}
    for i, (pid, pipe) in enumerate(net.pipes.items()):
        coarse[pid] = (ModelLevel.FULL, pipe.length / (4 + 4 * i))
        fine[pid] = (ModelLevel.FULL, pipe.length / (8 + 8 * i))
    coarse_inst = nlp.assemble(net, scn, gas, coarse)
    previous = nlp.solve(coarse_inst).iterate
    inst = nlp.assemble(net, scn, gas, fine)
    x = nlp._initial_point(inst, previous)[0]
    assert np.array_equal(x[: inst.n_scalar], previous.x[: inst.n_scalar])
    for pid, idx in inst.interior_idx.items():
        old = previous.x[coarse_inst.interior_idx[pid]]
        assert np.array_equal(x[idx][1::2], old)


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


def test_tree12_adaptive_run_pins_solves_objective_and_steps(monkeypatch):
    # the estimators integrate 31,095 steps over the 14 solves of the run
    steps = []

    def counting_integrate(level, pipe, gas, p0, q, grid, *args, **kwargs):
        steps.append(grid.n_intervals)
        return integrate(level, pipe, gas, p0, q, grid, *args, **kwargs)

    monkeypatch.setattr(estimators, "integrate", counting_integrate)
    net, gas, scn = tree12()
    sol, state = run(net, scn, gas, AdaptiveConfig())
    assert len(state.trace) == 14
    assert sol.objective == pytest.approx(TREE12_ADAPTIVE_OBJECTIVE, rel=1e-12)
    assert sum(steps) == 31_095


@pytest.mark.parametrize(
    "flow_min, flow_max",
    [(-np.inf, np.inf), (-1e6, np.inf), (-np.inf, 1e6)],
    ids=["free", "no-upper", "no-lower"],
)
@pytest.mark.parametrize("fixture", [chain5, tree12])
def test_infinite_flow_bounds_are_no_bounds(fixture, flow_min, flow_max):
    # the flows are not at their bounds of -1e6 and 1e6 kg/s, so dropping
    # them leaves the problem as it is; an unbounded flow used to count as
    # fixed at -inf (a non-finite KKT error at iteration 1), and one bounded
    # only below started at -999,950 kg/s (a false Infeasible)
    net, gas, scn = fixture()
    pipes = [
        dataclasses.replace(pipe, flow_min=flow_min, flow_max=flow_max)
        for pipe in net.pipes.values()
    ]
    free = Network(net.nodes.values(), pipes, net.compressors.values())
    state = {pid: (ModelLevel.FULL, pipe.length / 16) for pid, pipe in net.pipes.items()}
    bounded = nlp.solve(nlp.assemble(net, scn, gas, state))
    sol = nlp.solve(nlp.assemble(free, scn, gas, state))
    assert (sol.status, sol.reason) == (nlp.STATUS_OPTIMAL, nlp.REASON_CONVERGED)
    assert sol.objective == pytest.approx(bounded.objective, rel=1e-9)
    bounded, bounded_state = run(net, scn, gas, AdaptiveConfig())
    sol, state = run(free, scn, gas, AdaptiveConfig())
    assert len(state.trace) == len(bounded_state.trace)
    assert sol.objective == pytest.approx(bounded.objective, rel=1e-9)


def test_start_point_is_the_midpoint_or_the_bound_nearest_zero():
    # two finite bounds give their midpoint, one gives the bound if it
    # excludes 0, and none gives 0; the interior pressures are regridded
    pipe = Pipe("p", "b", "a", 4000.0, 0.5, 0.01, flow_min=-np.inf, flow_max=np.inf)
    comp = Compressor("c", "a", "b", np.inf, 1.0, flow_min=5.0, flow_max=np.inf)
    net = Network(
        [Node("a", "entry", 40e5, 60e5), Node("b", "exit", 30e5, np.inf)],
        [pipe],
        [comp],
    )
    state = {"p": (ModelLevel.FULL, 1000.0)}
    inst = nlp.assemble(net, Scenario({"a": -5.0, "b": 5.0}), GasParameters(), state)
    x = nlp._initial_point(inst)[0]
    # a, b in bar; the flows of p and c; the lift of c
    assert x[: inst.n_scalar].tolist() == [50.0, 30.0, 0.0, 5.0, 0.0]


# -- the l1 penalty weight ----------------------------------------------------

FALSE_INFEASIBLE = pytest.mark.xfail(
    strict=True,
    reason="the stall heuristic calls this feasible NLP Infeasible after 48-49 "
    "iterations; an Infeasible verdict needs a certificate: a stationary point "
    "of the constraint violation well above eps_opt",
)


@pytest.mark.parametrize(
    "rows, cols, n, level",
    [(7, 8, 16, 1), (7, 8, 16, 2), (7, 8, 64, 1), (7, 8, 64, 2),
     (10, 10, 64, 1), (10, 10, 64, 2),
     pytest.param(10, 10, 16, 1, marks=FALSE_INFEASIBLE),
     pytest.param(10, 10, 16, 2, marks=FALSE_INFEASIBLE)],
)
def test_cold_mesh_solve_converges_as_the_penalty_weight_comes_down(
    rows, cols, n, level, grid_mesh, monkeypatch
):
    # a weight that could only grow reached 3.2e4 on 7x8 within 5
    # iterations and kept it while the multipliers fell to about 1: each
    # full step then raised nu ||c||_1 by more than it lowered the objective,
    # and the cold solve ran into its iteration limit at about ten times the
    # optimum; the reference is a warm start from the solve at level 3
    net, gas, scn = grid_mesh(rows, cols)

    def state(level):
        return {pid: (ModelLevel.of(level), p.length / n) for pid, p in net.pipes.items()}

    inst = nlp.assemble(net, scn, gas, state(level))
    level_3 = nlp.solve(nlp.assemble(net, scn, gas, state(3)))
    warm = nlp.solve(inst, warm_start=level_3)
    monkeypatch.setattr(nlp, "MAX_ITERATIONS", 100)
    cold = nlp.solve(inst)
    assert warm.status == nlp.STATUS_OPTIMAL
    assert cold.status == nlp.STATUS_OPTIMAL
    assert cold.objective == pytest.approx(warm.objective, rel=1e-8)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: nu follows the old multipliers y, not y + dy, so "
    "the Newton step can ascend the merit function; the line search then "
    "halves 30 times and falls back to a step of 1e-8",
)
def test_line_search_finds_a_decrease_at_every_iteration(monkeypatch):
    # one call of `constraints` per trial, and one more at the fallback step,
    # before the next iterate's Jacobian: a failed search makes 31 calls
    net, scn, gas, state = compressor_chain()
    inst = nlp.assemble(net, scn, gas, state)
    constraints, jacobian = nlp.NlpInstance.constraints, nlp.NlpInstance.jacobian
    calls, per_iterate = [0], []

    def counting_constraints(self, x):
        calls[0] += 1
        return constraints(self, x)

    def counting_jacobian(self, x):
        per_iterate.append(calls[0])
        calls[0] = 0
        return jacobian(self, x)

    monkeypatch.setattr(nlp.NlpInstance, "constraints", counting_constraints)
    monkeypatch.setattr(nlp.NlpInstance, "jacobian", counting_jacobian)
    sol = nlp.solve(inst)
    assert sol.status == nlp.STATUS_OPTIMAL
    assert max(per_iterate) < 30

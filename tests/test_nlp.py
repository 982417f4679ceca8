"""NLP assembly and interior-point solver against closed-form oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from gasadapt import estimators, fileio, nlp
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
    mass balance of each node and the coupling of each compressor."""
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
    A = np.zeros((len(nodes) + len(comps), len(lb)))
    for row, n in enumerate(nodes):
        for arc in arcs:
            A[row, flow[arc.id]] += (arc.to_node == n.id) - (arc.from_node == n.id)
    for row, c in enumerate(comps, len(nodes)):
        A[row, [node[c.to_node], node[c.from_node], lift[c.id]]] = [1.0, -1.0, -1.0]
    b = [scn.flow_at(n.id) for n in nodes] + [0.0] * len(comps)
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
    got = {key: getattr(inst, key) for key in want}
    got["linear_A"] = inst.linear_A.toarray()
    assert got.pop("interior_idx").keys() == want["interior_idx"].keys()
    for pid, idx in inst.interior_idx.items():
        assert np.array_equal(idx, want["interior_idx"][pid]), pid
    for key in got:
        assert np.array_equal(got[key], want[key]), key
    assert inst.n_vars == len(want["lb"])
    assert inst.n_cons == len(want["linear_b"]) + len(want["ipk"])


def jacobian_matrix(inst, J):
    """J as a CSR matrix, by scipy's COO construction from `linear_A` and the
    gridpoint derivatives J of `inst.jacobian`."""
    lin = inst.linear_A.tocoo()
    rows = np.arange(lin.shape[0], inst.n_cons)
    return sp.csr_matrix(
        (
            np.concatenate([lin.data, J.ravel()]),
            (
                np.concatenate([lin.row, rows, rows, rows]),
                np.concatenate([lin.col, inst.ipkm1, inst.ipk, inst.iq]),
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
    x = nlp._initial_point(inst) + rng.uniform(-1.0, 1.0, inst.n_vars)
    for i in inst.flow_idx.values():
        x[i] = rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 80.0)
    y = rng.standard_normal(inst.n_cons)
    n_lin = inst.linear_A.shape[0]

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


# -- KKT factorization: pipe bands plus a border ----------------------------


def kkt_reference(inst, W, J, sigma, delta_w):
    """K = [[W + diag(sigma + delta_w), J^T], [J, -E]] over the free
    variables, built by sp.bmat from the gridpoint derivatives W and J; E is
    1e-12 on the constraint rows but the relations whose p_k is an interior
    pressure, which are independent."""
    free = np.flatnonzero(inst.lb < inst.ub)
    Jf = jacobian_matrix(inst, J)[:, free]
    W = hessian_matrix(inst, W)
    e = np.full(inst.n_cons, 1e-12)
    e[inst.linear_A.shape[0] + np.flatnonzero(inst.ipk >= inst.n_scalar)] = 0.0
    return sp.bmat(
        [
            [W[free][:, free] + sp.diags(sigma[free] + delta_w), Jf.T],
            [Jf, -sp.diags(e)],
        ],
        format="csc",
    )


def step_residual(inst, kkt, W, J, sigma, delta_w, rng):
    """max |K z - rhs| / max |rhs| of the step `kkt` takes at delta_w for a
    random right-hand side, against the sp.bmat reference K."""
    # c in the range of J: the mass balances are linearly dependent, so the
    # system is well conditioned only for consistent constraints
    v = np.zeros(inst.n_vars)
    v[kkt.free_idx] = rng.standard_normal(len(kkt.free_idx))
    rd, c = rng.standard_normal(inst.n_vars), jacobian_matrix(inst, J) @ v
    kkt.delta_w = delta_w
    dx, dy = kkt.step(W, J, sigma, rd, c)
    assert kkt.delta_w == delta_w / 3.0  # factored at delta_w, no retry
    assert np.all(np.delete(dx, kkt.free_idx) == 0.0)
    rhs = -np.concatenate([rd[kkt.free_idx], c])
    z = np.concatenate([dx[kkt.free_idx], dy])
    residual = kkt_reference(inst, W, J, sigma, delta_w) @ z - rhs
    return np.max(np.abs(residual)) / np.max(np.abs(rhs))


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
    x = nlp._initial_point(inst) + rng.uniform(-1.0, 1.0, inst.n_vars)
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
    x = nlp._initial_point(inst) + rng.uniform(-1.0, 1.0, n)
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

    assert step_residual(inst, kkt, W, J, sigma, delta_w, rng) <= 1e-10


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
    x = nlp._initial_point(inst)
    W = inst.lagrangian_hessian(x, rng.standard_normal(inst.n_cons))
    sigma = rng.uniform(1.0, 10.0, inst.n_vars)
    assert step_residual(inst, kkt, W, inst.jacobian(x), sigma, 0.0, rng) <= 1e-10


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
    x = nlp._initial_point(inst) + rng.uniform(-1.0, 1.0, inst.n_vars)
    J = inst.jacobian(x)
    W = inst.lagrangian_hessian(x, rng.standard_normal(inst.n_cons))
    sigma = rng.uniform(0.0, 10.0, inst.n_vars)
    kkt = nlp.KktSystem(inst)
    diag = np.concatenate([sigma[kkt.free_idx], kkt.reg])  # K's, but for W
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
    x = nlp._initial_point(inst) + rng.uniform(-1.0, 1.0, inst.n_vars)
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
    x = nlp._initial_point(inst)
    J, W = inst.jacobian(x), inst.lagrangian_hessian(x, np.zeros(inst.n_cons))
    kkt = nlp.KktSystem(inst)
    sigma = rng.uniform(1.0, 10.0, inst.n_vars)
    counter = CountingSplu(nlp.spla.splu, error)
    monkeypatch.setattr(nlp.spla, "splu", counter)
    # the residual against the sp.bmat K, against 1e-6 unrefined
    assert step_residual(inst, kkt, W, J, sigma, 0.0, rng) <= 1e-10
    assert (counter.factorizations, counter.solves) == (1, solves)


def test_refinement_that_fails_its_bound_raises_delta_w(monkeypatch):
    # a back-solve off by 1e-2 relative leaves 1e-4 relative after one round
    # of refinement, above the bound of 1e-8 * max(1, max |r|): each of the
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


@pytest.mark.parametrize("error, solves", [(0.0, 1), (1e-6, 2)])
def test_band_solves_per_factorization_and_back_solve(error, solves, monkeypatch):
    # one two-column A^-1 per factorization for u, and per back-solve A^-1 r_r,
    # from which the band pressures follow, and A^-T for the band relations:
    # three band solves for a step without refinement, two more with it
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, p.length / 64) for pid, p in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    rng = np.random.default_rng(5)
    x = nlp._initial_point(inst)
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
    assert step_residual(inst, kkt, W, J, sigma, 0.0, rng) <= 1e-10
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


def test_each_stop_has_its_reason():
    net, scn, gas, state = compressor_chain()
    inst = nlp.assemble(net, scn, gas, state)
    assert nlp.solve(inst).reason == nlp.REASON_CONVERGED
    limited = nlp.solve(inst, max_iterations=2)
    assert limited.status == nlp.STATUS_ITERATION_LIMIT
    assert limited.reason == nlp.REASON_ITERATION_LIMIT
    net, scn, gas, state = compressor_chain(lift_max=1e5)
    infeasible = nlp.solve(nlp.assemble(net, scn, gas, state))
    assert infeasible.status == nlp.STATUS_INFEASIBLE
    assert infeasible.reason == nlp.REASON_STALLED


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
    limited = nlp.solve(inst, max_iterations=1)
    assert limited.status == nlp.STATUS_ITERATION_LIMIT
    assert len(calls) == 2
    assert not np.array_equal(calls[0], calls[1])


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
    x = nlp._initial_point(inst)
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
    carried = [np.zeros(inst.n_cons), np.zeros(inst.n_vars), np.zeros(inst.n_vars)]
    nlp._warm_multipliers(inst, previous.iterate, *carried)
    converged = [np.zeros(inst.n_cons), np.zeros(inst.n_vars), np.zeros(inst.n_vars)]
    nlp._warm_multipliers(inst, cold.iterate, *converged)
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
    """`nlp._regrid` by one `np.interp` per pipe: its values at k/n_old,
    k = k0..n_old - k1, onto k/n_new, k = 1..n_new, the end values held."""
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
    values = np.concatenate(values)
    got = nlp._regrid(values, n_old, k0, k1, n_new)
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
    loaded, _ = fileio.load_solution(tmp_path / "sol.json")
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
    x = nlp._initial_point(inst, previous)
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
    # the estimators integrate 51,879 steps over the 14 solves of the run
    steps = []

    def counting_integrate(level, pipe, gas, p0, q, grid, *args, **kwargs):
        steps.append(grid.n_intervals)
        return integrate(level, pipe, gas, p0, q, grid, *args, **kwargs)

    monkeypatch.setattr(estimators, "integrate", counting_integrate)
    net, gas, scn = tree12()
    sol, state = run(net, scn, gas, AdaptiveConfig())
    assert len(state.trace) == 14
    assert sol.objective == pytest.approx(TREE12_ADAPTIVE_OBJECTIVE, rel=1e-12)
    assert sum(steps) == 51_879


@pytest.mark.parametrize("eps_opt", [0.0, -1.0, float("nan")])
def test_solve_rejects_a_non_positive_eps_opt(eps_opt):
    # at 0 chain-5 ended Infeasible after 57 iterations, at NaN it ran all 500
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, pipe.length / 4)
             for pid, pipe in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    with pytest.raises(ValueError, match=r"^eps_opt = .* must be positive$"):
        nlp.solve(inst, eps_opt=eps_opt)


def test_solve_rejects_an_infinite_eps_opt():
    # at inf the start point of chain-5 stopped LocalOptimum after 1 iteration
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.FULL, pipe.length / 4)
             for pid, pipe in net.pipes.items()}
    inst = nlp.assemble(net, scn, gas, state)
    with pytest.raises(ValueError, match=r"^eps_opt = inf must be finite$"):
        nlp.solve(inst, eps_opt=float("inf"))

"""Finite-dimensional NLP assembly and a primal-dual interior-point solver.

The instance carries node pressures, arc flows, compressor lifts, and
interior pipe pressures; each pipe contributes its implicit-Euler relation
per gridpoint as an equality constraint. Internally pressures are scaled
to bar so that residual tolerances are meaningful across the whole
variable vector; the public solution is plain SI.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .integrate import interval_count
from .models import pipe_coefficients
from .network import GasParameters, Network, Scenario, slope_of

PRESSURE_SCALE = 1e5  # internal pressure unit is bar
FLOW_SMOOTHING = 1e-6  # kg/s, smooths |q| q at q = 0
PRESSURE_FLOOR = 1e4  # Pa, protects 1/p terms
DEFAULT_EPS_OPT = 1e-8

STATUS_OPTIMAL = "LocalOptimum"
STATUS_INFEASIBLE = "Infeasible"
STATUS_ITERATION_LIMIT = "IterationLimit"


def _smooth_abs_flow(q):
    """phi(q) = q * sqrt(q^2 + sigma^2), a smooth stand-in for |q| q."""
    return q * np.sqrt(q * q + FLOW_SMOOTHING**2)


def _smooth_abs_flow_d1(q):
    s = np.sqrt(q * q + FLOW_SMOOTHING**2)
    return s + q * q / s


def _smooth_abs_flow_d2(q):
    s = np.sqrt(q * q + FLOW_SMOOTHING**2)
    return q * (2.0 * q * q + 3.0 * FLOW_SMOOTHING**2) / s**3


@dataclass
class NlpInstance:
    net: Network
    scn: Scenario
    gas: GasParameters
    state: dict  # pipe id -> (ModelLevel, stepsize)
    n_vars: int = 0
    node_idx: dict = field(default_factory=dict)
    flow_idx: dict = field(default_factory=dict)
    lift_idx: dict = field(default_factory=dict)
    interior_idx: dict = field(default_factory=dict)  # pipe id -> ndarray
    n_intervals: dict = field(default_factory=dict)  # pipe id -> n
    lb: np.ndarray = None
    ub: np.ndarray = None
    grad: np.ndarray = None  # linear objective gradient (scaled units)
    linear_A: sp.csr_matrix = None
    linear_b: np.ndarray = None
    n_cons: int = 0
    # the gridpoint relations, one entry each, pipe after pipe in assembly
    # order: variable indices of p_{k-1}, p_k and q, and the coefficients
    # (kappa, alpha, beta) of models.pipe_coefficients in bar units
    ipkm1: np.ndarray = None
    ipk: np.ndarray = None
    iq: np.ndarray = None
    k_coef: np.ndarray = None  # h * kappa / PRESSURE_SCALE^2
    grav_coef: np.ndarray = None  # h * alpha; zero at level 3
    ram_coef: np.ndarray = None  # beta / PRESSURE_SCALE^2; zero below level 1

    # -- evaluation in scaled units -------------------------------------

    def objective(self, x):
        return float(self.grad @ x)

    def constraints(self, x):
        pk, pkm1, q = x[self.ipk], x[self.ipkm1], x[self.iq]
        ram = 1.0 - self.ram_coef * q * q / pk**2
        r = (
            (pk - pkm1) * ram
            + self.k_coef * _smooth_abs_flow(q) / pk
            + self.grav_coef * pk
        )
        return np.concatenate([self.linear_A @ x - self.linear_b, r])

    def jacobian(self, x):
        pk, pkm1, q = x[self.ipk], x[self.ipkm1], x[self.iq]
        delta = pk - pkm1
        phi = _smooth_abs_flow(q)
        dphi = _smooth_abs_flow_d1(q)
        bq2 = self.ram_coef * q * q
        ram = 1.0 - bq2 / pk**2
        d_pkm1 = -ram
        d_pk = (
            ram
            + 2.0 * delta * bq2 / pk**3
            - self.k_coef * phi / pk**2
            + self.grav_coef
        )
        d_q = (
            -2.0 * delta * self.ram_coef * q / pk**2 + self.k_coef * dphi / pk
        )
        lin = self.linear_A.tocoo()
        rows = np.arange(lin.shape[0], self.n_cons)
        return sp.csr_matrix(
            (
                np.concatenate([lin.data, d_pkm1, d_pk, d_q]),
                (
                    np.concatenate([lin.row, rows, rows, rows]),
                    np.concatenate([lin.col, self.ipkm1, self.ipk, self.iq]),
                ),
            ),
            shape=(self.n_cons, self.n_vars),
        )

    def lagrangian_hessian(self, x, y):
        """sum_k y_k * Hess(r_k) over the gridpoint relations; the linear
        rows contribute nothing."""
        y = y[self.linear_A.shape[0] :]
        pk, pkm1, q = x[self.ipk], x[self.ipkm1], x[self.iq]
        delta = pk - pkm1
        phi = _smooth_abs_flow(q)
        dphi = _smooth_abs_flow_d1(q)
        d2phi = _smooth_abs_flow_d2(q)
        b = self.ram_coef
        bq2 = b * q * q
        h_pk_pk = y * (
            4.0 * bq2 / pk**3
            - 6.0 * delta * bq2 / pk**4
            + 2.0 * self.k_coef * phi / pk**3
        )
        h_pk_pkm1 = y * (-2.0 * bq2 / pk**3)
        h_q_pkm1 = y * (2.0 * b * q / pk**2)
        h_q_pk = y * (
            -2.0 * b * q / pk**2
            + 4.0 * delta * b * q / pk**3
            - self.k_coef * dphi / pk**2
        )
        h_qq = y * (-2.0 * delta * b / pk**2 + self.k_coef * d2phi / pk)
        ipk, ipkm1, iq = self.ipk, self.ipkm1, self.iq
        # lower and upper triangle both emitted
        rows = np.concatenate([ipk, ipk, ipkm1, ipkm1, iq, ipk, iq, iq])
        cols = np.concatenate([ipk, ipkm1, ipk, iq, ipkm1, iq, ipk, iq])
        data = np.concatenate(
            [h_pk_pk, h_pk_pkm1, h_pk_pkm1, h_q_pkm1, h_q_pkm1, h_q_pk, h_q_pk, h_qq]
        )
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n_vars, self.n_vars))


@dataclass
class Multipliers:
    """Converged multipliers keyed by network structure instead of position,
    so that a solve on other grids or model levels can start from them."""

    rows: dict  # ("balance", node) or ("coupling", compressor) -> y
    bounds: dict  # ("p", node), ("q", arc) or ("dp", compressor) -> (zl, zu)
    # pipe id -> (y of its n gridpoint relations, zl and zu of its n-1
    # interior pressures)
    pipes: dict


@dataclass
class NlpSolution:
    status: str
    objective: float  # SI cost units
    node_pressures: dict  # Pa
    arc_flows: dict  # kg/s
    compressor_lifts: dict  # Pa
    interior_pressures: dict  # pipe id -> ndarray of n-1 values, Pa
    kkt_error: float
    n_iterations: int
    solve_seconds: float = 0.0
    # converged multipliers for warm starts; a solve on other grids or levels
    # takes them over by id and interpolates them along each pipe
    duals: Multipliers = None


def assemble(
    net: Network, scn: Scenario, gas: GasParameters, state: dict
) -> NlpInstance:
    """Build the NLP for the given per-pipe (level, stepsize) assignment."""
    inst = NlpInstance(net=net, scn=scn, gas=gas, state=dict(state))

    idx = 0
    lb, ub, grad = [], [], []

    def add_var(lo, hi, cost=0.0):
        nonlocal idx
        lb.append(lo)
        ub.append(hi)
        grad.append(cost)
        idx += 1
        return idx - 1

    for node in net.nodes.values():
        inst.node_idx[node.id] = add_var(
            max(node.pressure_min, PRESSURE_FLOOR) / PRESSURE_SCALE,
            node.pressure_max / PRESSURE_SCALE,
        )
    for arc in list(net.pipes.values()) + list(net.compressors.values()):
        inst.flow_idx[arc.id] = add_var(arc.flow_min, arc.flow_max)
    for comp in net.compressors.values():
        # objective is cost per Pa of lift; lift variable is in bar
        inst.lift_idx[comp.id] = add_var(
            0.0, comp.lift_max / PRESSURE_SCALE, cost=comp.cost_coeff * PRESSURE_SCALE
        )

    # each pipe: its n-1 interior pressures as one contiguous index range
    # after the scalar variables, and its n gridpoint relations
    # (the empty first entries keep a network without pipes valid)
    n_scalar = idx
    ipkm1, ipk, iq, coefs = [[]], [[]], [[]], [np.empty((0, 3))]
    for pipe in net.pipes.values():
        level, h = state[pipe.id]
        n = interval_count(pipe, h)
        inst.n_intervals[pipe.id] = n
        interior = np.arange(idx, idx + n - 1)
        inst.interior_idx[pipe.id] = interior
        idx += n - 1
        p = np.concatenate(
            [[inst.node_idx[pipe.from_node]], interior, [inst.node_idx[pipe.to_node]]]
        )
        ipkm1.append(p[:-1])
        ipk.append(p[1:])
        iq.append(np.full(n, inst.flow_idx[pipe.id]))
        kappa, alpha, beta = pipe_coefficients(level, pipe, gas, slope_of(pipe, net))
        coefs.append(
            np.full(
                (n, 3),
                (h * kappa / PRESSURE_SCALE**2, h * alpha, beta / PRESSURE_SCALE**2),
            )
        )
    inst.n_vars = idx
    n_interior = idx - n_scalar
    inst.lb = np.concatenate([lb, np.full(n_interior, PRESSURE_FLOOR / PRESSURE_SCALE)])
    inst.ub = np.concatenate([ub, np.full(n_interior, np.inf)])
    inst.grad = np.concatenate([grad, np.zeros(n_interior)])
    inst.ipkm1, inst.ipk, inst.iq = (
        np.concatenate(i).astype(int) for i in (ipkm1, ipk, iq)
    )
    inst.k_coef, inst.grav_coef, inst.ram_coef = np.concatenate(coefs).T

    # linear constraints: mass balance per node, compressor coupling
    rows, cols, data, rhs = [], [], [], []
    row = 0
    for node_id in net.nodes:
        for arc in net.in_arcs(node_id):
            rows.append(row)
            cols.append(inst.flow_idx[arc.id])
            data.append(1.0)
        for arc in net.out_arcs(node_id):
            rows.append(row)
            cols.append(inst.flow_idx[arc.id])
            data.append(-1.0)
        rhs.append(scn.flow_at(node_id))
        row += 1
    for comp in net.compressors.values():
        rows.extend([row, row, row])
        cols.extend(
            [
                inst.node_idx[comp.to_node],
                inst.node_idx[comp.from_node],
                inst.lift_idx[comp.id],
            ]
        )
        data.extend([1.0, -1.0, -1.0])
        rhs.append(0.0)
        row += 1
    inst.linear_A = sp.csr_matrix(
        (data, (rows, cols)), shape=(row, inst.n_vars)
    )
    inst.linear_b = np.array(rhs)

    inst.n_cons = row + len(inst.ipk)
    return inst


# -- warm starting -------------------------------------------------------


def _initial_point(inst: NlpInstance, warm_start: NlpSolution = None) -> np.ndarray:
    x = np.zeros(inst.n_vars)
    finite_lb = np.where(np.isfinite(inst.lb), inst.lb, 0.0)
    finite_ub = np.where(np.isfinite(inst.ub), inst.ub, finite_lb + 100.0)
    x[:] = 0.5 * (finite_lb + finite_ub)

    if warm_start is not None:
        for node, i in inst.node_idx.items():
            if node in warm_start.node_pressures:
                x[i] = warm_start.node_pressures[node] / PRESSURE_SCALE
        for arc, i in inst.flow_idx.items():
            if arc in warm_start.arc_flows:
                x[i] = warm_start.arc_flows[arc]
        for comp, i in inst.lift_idx.items():
            if comp in warm_start.compressor_lifts:
                x[i] = warm_start.compressor_lifts[comp] / PRESSURE_SCALE
    # interior pipe pressures: the warm start's profile (Pa) interpolated
    # onto the new grid, else a straight line between the end pressures
    for pipe in inst.net.pipes.values():
        idx = inst.interior_idx[pipe.id]
        ends = (pipe.from_node, pipe.to_node)
        profile = x[[inst.node_idx[node] for node in ends]]
        scale = 1.0
        if warm_start is not None:
            old = warm_start.interior_pressures.get(pipe.id)
            p_ends = [warm_start.node_pressures.get(node) for node in ends]
            if old is not None and None not in p_ends:
                profile = np.concatenate([[p_ends[0]], np.asarray(old), [p_ends[1]]])
                scale = PRESSURE_SCALE
        old_pos = np.linspace(0.0, 1.0, len(profile))
        new_pos = np.arange(1, len(idx) + 1) / (len(idx) + 1)
        x[idx] = np.interp(new_pos, old_pos, profile) / scale
    return x


def _linear_row_keys(net):
    """Keys of the linear rows in assembly order: one mass balance per node,
    then one coupling per compressor."""
    return [("balance", node) for node in net.nodes] + [
        ("coupling", comp) for comp in net.compressors
    ]


def _scalar_variables(inst):
    """(key, index) of every variable that is not an interior pipe pressure."""
    return (
        [(("p", node), i) for node, i in inst.node_idx.items()]
        + [(("q", arc), i) for arc, i in inst.flow_idx.items()]
        + [(("dp", comp), i) for comp, i in inst.lift_idx.items()]
    )


def _keyed_multipliers(inst, y, zl, zu) -> Multipliers:
    n_lin = inst.linear_A.shape[0]
    pipes = {}
    row0 = n_lin
    for pid, interior in inst.interior_idx.items():
        n = inst.n_intervals[pid]
        pipes[pid] = (y[row0 : row0 + n].copy(), zl[interior], zu[interior])
        row0 += n
    return Multipliers(
        rows=dict(zip(_linear_row_keys(inst.net), y[:n_lin].tolist())),
        bounds={
            key: (float(zl[i]), float(zu[i])) for key, i in _scalar_variables(inst)
        },
        pipes=pipes,
    )


def _regrid(values, n_old, n_new, count):
    """Values at the gridpoints k/n_old (k = 1, 2, ...) of a pipe,
    interpolated onto the gridpoints k/n_new, k = 1..count."""
    old_pos = np.arange(1, len(values) + 1) / n_old
    new_pos = np.arange(1, count + 1) / n_new
    return np.interp(new_pos, old_pos, values)


def _warm_multipliers(inst, warm: Multipliers, y, zl, zu):
    """Overwrite y, zl and zu in place with the multipliers of a previous
    solve: by id for linear rows and scalar variables, interpolated onto the
    new grid for each pipe. Entries without a counterpart keep their value."""
    for i, key in enumerate(_linear_row_keys(inst.net)):
        if key in warm.rows:
            y[i] = warm.rows[key]
    for key, i in _scalar_variables(inst):
        if key in warm.bounds:
            zl[i], zu[i] = warm.bounds[key]
    row0 = inst.linear_A.shape[0]
    for pid, interior in inst.interior_idx.items():
        n = inst.n_intervals[pid]
        if pid in warm.pipes:
            y_old, zl_old, zu_old = warm.pipes[pid]
            n_old = len(y_old)
            y[row0 : row0 + n] = _regrid(y_old, n_old, n, n)
            zl[interior] = _regrid(zl_old, n_old, n, n - 1)
            zu[interior] = _regrid(zu_old, n_old, n, n - 1)
        row0 += n


def _extract_solution(inst, x, status, kkt_error, iterations, seconds, duals=None):
    node_pressures = {
        node: float(x[i]) * PRESSURE_SCALE for node, i in inst.node_idx.items()
    }
    arc_flows = {arc: float(x[i]) for arc, i in inst.flow_idx.items()}
    lifts = {
        comp: float(x[i]) * PRESSURE_SCALE for comp, i in inst.lift_idx.items()
    }
    interior = {
        pipe: x[idx] * PRESSURE_SCALE for pipe, idx in inst.interior_idx.items()
    }
    objective = sum(
        inst.net.compressors[comp].cost_coeff * lifts[comp] for comp in lifts
    )
    return NlpSolution(
        status=status,
        objective=objective,
        node_pressures=node_pressures,
        arc_flows=arc_flows,
        compressor_lifts=lifts,
        interior_pressures=interior,
        kkt_error=kkt_error,
        n_iterations=iterations,
        solve_seconds=seconds,
        duals=duals,
    )


# -- interior-point solver ------------------------------------------------


def _fixed_mask(lb, ub):
    return (ub - lb) <= 1e-12 * np.maximum(1.0, np.abs(lb))


def kkt_ordering(inst: NlpInstance) -> np.ndarray:
    """Symmetric permutation of the KKT matrix [[W, J^T], [J, -dI]], whose
    first nfree rows are the free variables and whose last m rows are the
    constraints in assembly order.

    Each pipe's gridpoint relations come interleaved with its interior
    pressures, r_1, p_1, r_2, p_2, ..., p_{n-1}, r_n, so that the pipe is a
    band bordered only by its flow and its two end pressures. The remaining
    free variables (node pressures, arc flows, lifts) follow, and the linear
    rows (mass balance, compressor coupling) come last. LU fill under
    partial pivoting then stays within a small multiple of nnz(K).
    """
    free = ~_fixed_mask(inst.lb, inst.ub)
    nfree = int(np.sum(free))
    pos = np.full(inst.n_vars, -1)
    pos[free] = np.arange(nfree)
    n_lin = inst.linear_A.shape[0]

    # relation k, then p_k while p_k is an interior pressure; node pressures
    # have the lowest variable indices
    inner = inst.ipk >= len(inst.node_idx)
    band = np.column_stack([nfree + n_lin + np.arange(len(inst.ipk)), pos[inst.ipk]])
    band = band[np.column_stack([np.ones_like(inner), inner])]
    rest = free.copy()
    rest[inst.ipk[inner]] = False
    return np.concatenate([band, pos[rest], nfree + np.arange(n_lin)])


def solve(
    inst: NlpInstance,
    warm_start: NlpSolution = None,
    eps_opt: float = DEFAULT_EPS_OPT,
    max_iterations: int = 500,
) -> NlpSolution:
    """Primal-dual interior-point solve with a logarithmic barrier on bounds,
    damped Newton steps on the perturbed KKT system, and a
    fraction-to-the-boundary rule."""
    t0 = time.perf_counter()
    n, m = inst.n_vars, inst.n_cons
    fixed = _fixed_mask(inst.lb, inst.ub)
    free = ~fixed
    free_idx = np.where(free)[0]
    nfree = len(free_idx)
    # the lower and upper bounds as the two rows of one array: row r has the
    # slack sign[r] * (x - bound[r]) and the multipliers z[r]; `has` masks
    # out infinite bounds and fixed variables, whose bound entries are zeroed
    bound = np.stack([inst.lb, inst.ub])
    has = np.isfinite(bound) & free
    bound[~has] = 0.0
    sign = np.array([[1.0], [-1.0]])

    def slack(x):
        return np.where(has, sign * (x - bound), 1.0)

    def inside(x, margin):
        """x moved at least `margin` inside each of its bounds."""
        edge = np.where(has, bound + sign * margin, -sign * np.inf)
        return np.clip(x, edge[0], edge[1])

    x = _initial_point(inst, warm_start)
    x[fixed] = inst.lb[fixed]
    # push strictly inside the bounds; a warm start is presumed near-optimal,
    # so barely perturb it
    margin = 1e-12 if warm_start is not None else 1e-2
    gap = np.where(has.all(axis=0), bound[1] - bound[0], np.inf)
    x = inside(x, np.minimum(margin * np.maximum(1.0, np.abs(bound)), 1e-2 * gap))

    perm = kkt_ordering(inst)
    mu_min = max(eps_opt / 10.0, 1e-14)

    # a warm start continues at the final barrier parameter from the
    # multipliers of the previous solve, carried over onto this instance
    mu = 0.1 if warm_start is None else mu_min
    y = np.zeros(m)
    z = np.where(has, np.clip(mu / np.maximum(slack(x), 1e-8), 0.0, 1e8), 0.0)
    if warm_start is not None and warm_start.duals is not None:
        _warm_multipliers(inst, warm_start.duals, y, *z)
        z = np.where(has, np.maximum(z, 1e-16), 0.0)
    delta_w = 0.0
    nu = 1.0  # l1 penalty weight for the merit function
    best_viol = np.inf
    stall = 0

    def dual_residual(J, y, z):
        """grad f + J^T y - z_lower + z_upper."""
        return inst.grad + J.T @ y - z[0] + z[1]

    def kkt_errors(s, J, c, y, z, mu):
        g = dual_residual(J, y, z)
        comp = np.where(has, s * z - mu, 0.0)
        s_d = max(1.0, (np.sum(np.abs(y)) + np.sum(z)) / max(1, m + n) / 100.0)
        e_dual = np.max(np.abs(g[free])) / s_d if free.any() else 0.0
        e_primal = np.max(np.abs(c)) if m else 0.0
        e_comp = np.max(np.abs(comp), initial=0.0) / s_d
        return e_dual, e_primal, e_comp

    def merit(x, c):
        """The barrier objective plus the l1 penalty on the constraints c."""
        barrier = np.sum(np.log(np.maximum(slack(x)[has], 1e-300)))
        return inst.objective(x) + nu * np.sum(np.abs(c)) - mu * barrier

    iterations = 0
    status = STATUS_ITERATION_LIMIT
    while iterations < max_iterations:
        iterations += 1
        c = inst.constraints(x)
        J = inst.jacobian(x)
        s = slack(x)
        e_dual, e_primal, e_comp = kkt_errors(s, J, c, y, z, 0.0)
        kkt = max(e_dual, e_primal, e_comp)
        if kkt <= eps_opt:
            status = STATUS_OPTIMAL
            break
        if not np.isfinite(kkt):
            status = (
                STATUS_INFEASIBLE
                if best_viol > 1e4 * eps_opt
                else STATUS_ITERATION_LIMIT
            )
            break

        # infeasibility heuristic: constraint violation stalls well above tol
        if e_primal < best_viol * 0.9999:
            best_viol = e_primal
            stall = 0
        else:
            stall += 1
        if stall >= 30 and best_viol > 1e4 * eps_opt:
            status = STATUS_INFEASIBLE
            break

        if max(kkt_errors(s, J, c, y, z, mu)) <= 10.0 * mu and mu > mu_min:
            mu = max(mu_min, 0.2 * mu)
            continue

        sigma = np.sum(z / s, axis=0)
        # condensed dual residual with the complementarity equations folded in
        rd = dual_residual(J, y, np.where(has, mu / s, 0.0))

        W = inst.lagrangian_hessian(x, y)
        Wff = W[free_idx][:, free_idx]
        Jf = J[:, free_idx]
        rd_f = rd[free_idx]
        sigma_f = sigma[free_idx]

        trial_delta = delta_w
        for _ in range(12):
            H = Wff + sp.diags(sigma_f + trial_delta)
            K = sp.bmat(
                [[H, Jf.T], [Jf, -sp.eye(m) * 1e-12]], format="csc"
            )
            # factor in the pipe-interleaved order; SuperLU keeps its
            # partial pivoting, which the -1e-12 (2,2) block needs
            Kp = K[perm][:, perm]
            rhs_p = np.concatenate([-rd_f, -c])[perm]
            with contextlib.suppress(RuntimeError, ValueError):
                lu = spla.splu(Kp, permc_spec="NATURAL")
                step_p = lu.solve(rhs_p)
                # one round of iterative refinement sharpens the attainable
                # KKT tolerance near convergence
                step_p -= lu.solve(Kp @ step_p - rhs_p)
                if np.all(np.isfinite(step_p)):
                    break
            # a failed factorization or a non-finite step: regularize more
            trial_delta = max(1e-8, 10.0 * trial_delta)
        else:
            status = STATUS_ITERATION_LIMIT
            break
        delta_w = trial_delta / 3.0

        step = np.empty_like(step_p)
        step[perm] = step_p
        dx = np.zeros(n)
        dx[free_idx] = step[:nfree]
        dy = step[nfree:]
        ds = sign * dx  # the step of the slacks
        dz = np.where(has, (mu - z * ds) / s - z, 0.0)

        # fraction-to-the-boundary
        tau = max(0.99, 1.0 - mu)
        shrink = has & (ds < 0.0)
        alpha_p = np.min(-tau * s[shrink] / ds[shrink], initial=1.0)
        shrink = has & (dz < 0.0) & (z > 0.0)
        alpha_d = np.min(-tau * z[shrink] / dz[shrink], initial=1.0)

        # Armijo backtracking on the l1 merit function
        nu = max(nu, 2.0 * np.max(np.abs(y), initial=0.0) + 1.0)
        phi0 = merit(x, c)
        dphi = inst.grad @ dx - nu * np.sum(np.abs(c))
        dphi -= mu * np.sum(ds[has] / s[has])
        alpha = alpha_p
        for _ in range(30):
            x_trial = x + alpha * dx
            phi_trial = merit(x_trial, inst.constraints(x_trial))
            if phi_trial <= phi0 + 1e-4 * alpha * min(dphi, 0.0) or phi_trial < phi0:
                break
            alpha *= 0.5
        else:
            # fall back to a tiny step to escape; if it persists the stall
            # counter above will trigger
            alpha = min(alpha_p, 1e-8)
            x_trial = x + alpha * dx

        # keep a machine-precision slack so 1/slack stays finite even when
        # an infeasible instance pushes the iterate onto its bounds
        x = inside(x_trial, np.finfo(float).eps * np.maximum(1.0, np.abs(bound)))
        y = y + alpha_d * dy
        # clip duals so sigma stays within a bounded multiple of mu/slack
        z = np.clip(z + alpha_d * dz, 1e-16, 1e16)
        z = np.where(has, np.clip(z, mu / (1e10 * s), 1e10 * mu / s), 0.0)

    kkt = max(kkt_errors(slack(x), inst.jacobian(x), inst.constraints(x), y, z, 0.0))
    if status == STATUS_ITERATION_LIMIT and kkt <= eps_opt:
        status = STATUS_OPTIMAL
    seconds = time.perf_counter() - t0
    return _extract_solution(
        inst, x, status, kkt, iterations, seconds,
        duals=_keyed_multipliers(inst, y, *z),
    )

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

# why a solve stopped (NlpSolution.reason)
REASON_CONVERGED = "KKT error within eps_opt"
REASON_NOT_FINITE = "non-finite KKT error"
REASON_STALLED = "primal infeasibility stalled for 30 iterations"
REASON_FACTORIZATION = "KKT factorization failed after 12 delta_w increases"
REASON_ITERATION_LIMIT = "iteration limit reached"


# scipy is about half the start-up time of a fresh process and only the NLP
# needs it, so it is imported when an instance is assembled: every path to
# `sp`, `spla` or `lapack` starts from an `assemble`. Calls go through these
# module attributes, so patching `spla.splu` or `lapack.dtbtrs` still counts.
def _load_scipy():
    global sp, spla, lapack
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from scipy.linalg import lapack


def __getattr__(name):
    """`nlp.sp`, `nlp.spla` and `nlp.lapack` load scipy on first access."""
    if name in ("sp", "spla", "lapack"):
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _smooth_abs_flow(q):
    """phi(q) = q * sqrt(q^2 + sigma^2), a smooth stand-in for |q| q, and its
    first and second derivatives."""
    s = np.sqrt(q * q + FLOW_SMOOTHING**2)
    return q * s, s + q * q / s, q * (2.0 * q * q + 3.0 * FLOW_SMOOTHING**2) / s**3


@dataclass
class NlpInstance:
    net: Network
    n_vars: int = 0
    n_scalar: int = 0  # node pressures, arc flows and lifts come first
    node_idx: dict = field(default_factory=dict)
    flow_idx: dict = field(default_factory=dict)
    lift_idx: dict = field(default_factory=dict)
    interior_idx: dict = field(default_factory=dict)  # pipe id -> ndarray
    lb: np.ndarray = None
    ub: np.ndarray = None
    grad: np.ndarray = None  # linear objective gradient (scaled units)
    cost_idx: np.ndarray = None  # the nonzero entries of grad, at lifts
    linear_A: sp.csr_matrix = None
    linear_AT: sp.csr_matrix = None  # linear_A.T as CSR, for J^T y
    linear_b: np.ndarray = None
    n_cons: int = 0
    # the gridpoint relations, one entry each, pipe after pipe in assembly
    # order: variable indices of p_{k-1}, p_k and q
    ipkm1: np.ndarray = None
    ipk: np.ndarray = None
    iq: np.ndarray = None
    inner: np.ndarray = None  # the relations whose p_k is an interior pressure
    # per pipe, in assembly order: relation count, first and last relation,
    # p_from, p_to and q as the rows of `ends`, and the coefficients (kappa,
    # alpha, beta) of models.pipe_coefficients in bar units
    pipe_n: np.ndarray = None
    first: np.ndarray = None
    last: np.ndarray = None
    ends: np.ndarray = None
    k_coef: np.ndarray = None  # h * kappa / PRESSURE_SCALE^2
    ram_coef: np.ndarray = None  # beta / PRESSURE_SCALE^2; zero below level 1
    grav_coef: np.ndarray = None  # h * alpha, per relation; zero at level 3

    # -- evaluation in scaled units -------------------------------------

    def objective(self, x):
        # over the lifts only: a full-length dot starts multithreaded BLAS
        return float(self.grad[self.cost_idx] @ x[self.cost_idx])

    def _flow_terms(self, x, order):
        """beta q, beta q^2 and kappa phi^(j)(q), j = 0..order, evaluated once
        per pipe, whose flow is constant along it, and repeated to its relations."""
        q = x[self.ends[2]]
        bq = self.ram_coef * q
        terms = [bq, bq * q] + [self.k_coef * d for d in _smooth_abs_flow(q)]
        return np.repeat(terms[: order + 3], self.pipe_n, axis=1)

    def constraints(self, x):
        pk, pkm1 = x[self.ipk], x[self.ipkm1]
        _, bq2, kphi = self._flow_terms(x, 0)
        r = (pk - pkm1) * (1.0 - bq2 / pk**2) + kphi / pk + self.grav_coef * pk
        return np.concatenate([self.linear_A @ x - self.linear_b, r])

    def jacobian(self, x):
        """The derivatives of each gridpoint relation at its p_{k-1}, p_k and
        q, the rows of a (3, n_relations) array; the linear rows of J are
        `linear_A`."""
        pk, pkm1 = x[self.ipk], x[self.ipkm1]
        delta = pk - pkm1
        bq, bq2, kphi, kdphi = self._flow_terms(x, 1)
        ram = 1.0 - bq2 / pk**2
        d_pk = ram + 2.0 * delta * bq2 / pk**3 - kphi / pk**2 + self.grav_coef
        d_q = -2.0 * delta * bq / pk**2 + kdphi / pk
        return np.stack([-ram, d_pk, d_q])

    def lagrangian_hessian(self, x, y):
        """W = sum_k y_k * Hess(r_k) over the gridpoint relations, as the five
        distinct entries of each relation's term: the rows (p_k, p_k),
        (p_k, p_{k-1}), (q, p_{k-1}), (q, p_k) and (q, q) of a
        (5, n_relations) array. The linear rows contribute nothing."""
        y = y[self.linear_A.shape[0] :]
        pk, pkm1 = x[self.ipk], x[self.ipkm1]
        delta = pk - pkm1
        bq, bq2, kphi, kdphi, kd2phi = self._flow_terms(x, 2)
        b = np.repeat(self.ram_coef, self.pipe_n)
        # y / p_k^2 and y / p_k^3 from products: a cube by `**` is a pow call
        inv_pk = 1.0 / pk
        y2 = y * inv_pk * inv_pk
        y3 = y2 * inv_pk
        h_pk_pk = y3 * (4.0 * bq2 - 6.0 * delta * bq2 * inv_pk + 2.0 * kphi)
        h_pk_pkm1 = y3 * (-2.0 * bq2)
        h_q_pkm1 = y2 * (2.0 * bq)
        h_q_pk = y2 * (-2.0 * bq + 4.0 * delta * bq * inv_pk - kdphi)
        h_qq = y2 * (-2.0 * delta * b + kd2phi * pk)
        return np.stack([h_pk_pk, h_pk_pkm1, h_q_pkm1, h_q_pk, h_qq])

    def jacobian_t_product(self, J, y):
        """J^T y, J from `jacobian`."""
        n_lin = self.linear_A.shape[0]
        return self.linear_AT @ y[:n_lin] + self._scatter(*(J * y[n_lin:]))

    def _scatter(self, at_pkm1, at_pk, at_q):
        """The n_vars-vector of each relation's three values summed into its
        p_{k-1}, p_k and q: relations inner[i] and inner[i] + 1 meet at the
        interior pressure n_scalar + i, and each pipe ends at its p_from, p_to
        and q."""
        q_sums = np.add.reduceat(at_q, self.first)
        ends = np.concatenate([at_pkm1[self.first], at_pk[self.last], q_sums])
        at_ends = np.bincount(self.ends.ravel(), ends, self.n_scalar)
        return np.concatenate([at_ends, (at_pk[:-1] + at_pkm1[1:])[self.inner]])


def _pattern(rows, cols, shape):
    """CSR pattern of the matrix with entries at (rows, cols), duplicates
    summed: (indices, indptr, scatter), where entry t is summed into the
    data slot scatter[t]. Pass (cols, rows) for the CSC pattern."""
    keys, scatter = np.unique(rows * shape[1] + cols, return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
    # 32-bit indices, which scipy would choose and SuperLU takes, spare a
    # conversion of the pattern for each matrix built on it
    return (keys % shape[1]).astype(np.int32), indptr.astype(np.int32), scatter


def _fill(pattern, values, shape):
    """The CSC matrix of `values` summed into a CSC pattern from `_pattern`."""
    indices, indptr, scatter = pattern
    data = np.bincount(scatter, weights=values, minlength=len(indices))
    # (the bincount of no entries is integer)
    return sp.csc_matrix((data.astype(float, copy=False), indices, indptr), shape=shape)


@dataclass
class Iterate:
    """The final iterate of a solve in solver units, for warm starts of solves
    on the same network. Every instance of a network orders its scalar
    variables (node pressures, arc flows, lifts) and its linear rows
    (balances, couplings) alike, so those carry over by position; only the
    block of each pipe changes with its interval count."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray  # the lower- and upper-bound multipliers as two rows
    pipe_n: np.ndarray  # the instance's interval count per pipe
    ids: tuple  # the node, arc and compressor ids of the network


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
    # the final iterate, from which a solve on the same network can start
    iterate: Iterate = None
    reason: str = ""  # why the solve stopped, one of the REASON_* phrases


def assemble(
    net: Network, scn: Scenario, gas: GasParameters, state: dict
) -> NlpInstance:
    """Build the NLP for the given per-pipe (level, stepsize) assignment."""
    _load_scipy()
    inst = NlpInstance(net=net)
    nodes, comps = net.nodes.values(), net.compressors.values()
    arcs = [*net.pipes.values(), *comps]
    n_nodes, n_pipes, n_comps = len(nodes), len(net.pipes), len(comps)
    # the scalar variables: node pressures, arc flows and lifts, in this order
    n_flows = n_nodes + len(arcs)
    inst.n_scalar = n_flows + n_comps
    inst.node_idx = dict(zip(net.nodes, range(n_nodes)))
    inst.flow_idx = dict(zip([arc.id for arc in arcs], range(n_nodes, n_flows)))
    inst.lift_idx = dict(zip(net.compressors, range(n_flows, inst.n_scalar)))
    flows, lifts = np.arange(n_nodes, n_flows), np.arange(n_flows, inst.n_scalar)
    from_node = np.array([inst.node_idx[arc.from_node] for arc in arcs], dtype=int)
    to_node = np.array([inst.node_idx[arc.to_node] for arc in arcs], dtype=int)

    pipe_n, coefs = [], []
    for pipe in net.pipes.values():
        level, h = state[pipe.id]
        pipe_n.append(interval_count(pipe, h))
        kappa, alpha, beta = pipe_coefficients(level, pipe, gas, slope_of(pipe, net))
        coefs.append((h * kappa, h * alpha, beta))
    inst.pipe_n = np.array(pipe_n, dtype=int)
    inst.last = np.cumsum(inst.pipe_n) - 1
    inst.first = inst.last - inst.pipe_n + 1
    k_coef, grav, ram_coef = np.reshape(coefs, (-1, 3)).T
    inst.k_coef, inst.ram_coef = (c / PRESSURE_SCALE**2 for c in (k_coef, ram_coef))
    inst.grav_coef = np.repeat(grav, inst.pipe_n)

    # The layout: the relations are numbered from 0, pipe after pipe, and the
    # n - 1 interior pressures of each pipe follow the scalar variables in the
    # same order. Relation r of pipe i has p_k = n_scalar + r - i and
    # p_{k-1} = p_k - 1, except that p_k is the pipe's to-node at its last
    # relation and p_{k-1} its from-node at its first.
    pipe_of = np.repeat(np.arange(n_pipes), inst.pipe_n)
    inst.ipk = inst.n_scalar + np.arange(len(pipe_of)) - pipe_of
    inst.ipkm1 = inst.ipk - 1
    inst.ends = np.stack([from_node[:n_pipes], to_node[:n_pipes], flows[:n_pipes]])
    inst.ipkm1[inst.first], inst.ipk[inst.last] = inst.ends[:2]
    inst.iq = np.repeat(inst.ends[2], inst.pipe_n)
    inst.inner = np.flatnonzero(inst.ipk >= inst.n_scalar)
    inst.interior_idx = {
        pid: inst.ipk[i:j] for pid, i, j in zip(net.pipes, inst.first, inst.last)
    }
    n_interior = len(inst.inner)  # one per relation but each pipe's last
    inst.n_vars = inst.n_scalar + n_interior

    # the bounds, pressures and lifts in bar, and the objective, cost per Pa
    # of lift
    lb = [max(n.pressure_min, PRESSURE_FLOOR) / PRESSURE_SCALE for n in nodes]
    lb += [arc.flow_min for arc in arcs] + [0.0] * n_comps
    ub = [n.pressure_max / PRESSURE_SCALE for n in nodes]
    ub += [arc.flow_max for arc in arcs] + [c.lift_max / PRESSURE_SCALE for c in comps]
    inst.lb = np.concatenate([lb, np.full(n_interior, PRESSURE_FLOOR / PRESSURE_SCALE)])
    inst.ub = np.concatenate([ub, np.full(n_interior, np.inf)])
    inst.grad = np.zeros(inst.n_vars)
    inst.grad[lifts] = [c.cost_coeff * PRESSURE_SCALE for c in comps]
    inst.cost_idx = np.flatnonzero(inst.grad)

    # the linear rows as COO triples: the mass balance of each node, +1 at
    # the flow of each arc into it and -1 at each arc out of it, then the
    # coupling p_to - p_from - lift of each compressor
    coupling = np.arange(n_nodes, n_nodes + n_comps)
    rows = np.concatenate([to_node, from_node, np.tile(coupling, 3)])
    cols = np.concatenate([flows, flows, to_node[n_pipes:], from_node[n_pipes:], lifts])
    data = np.repeat([1.0, -1.0, 1.0, -1.0, -1.0], [len(arcs)] * 2 + [n_comps] * 3)
    shape = (n_nodes + n_comps, inst.n_vars)
    inst.linear_A = sp.csr_matrix((data, (rows, cols)), shape=shape)
    inst.linear_AT = inst.linear_A.T.tocsr()
    inst.linear_b = np.array([scn.flow_at(n) for n in net.nodes] + [0.0] * n_comps)
    inst.n_cons = shape[0] + len(inst.ipk)
    return inst


# -- warm starting -------------------------------------------------------


def _regrid(values, n_old, k0, k1, n_new):
    """Each pipe's values at its gridpoints k/n_old, k = k0..n_old - k1,
    pipe after pipe, interpolated onto its gridpoints k/n_new, k = 1..n_new,
    in one `np.interp`: pipe i's gridpoints move to [2i, 2i + 1], exactly for
    power-of-two counts, and a new point outside a pipe's old range is
    clipped to it, as `np.interp` holds the end values of a single pipe."""
    if not len(values):  # no pipes: np.interp rejects an empty grid
        return values
    count = n_old + 1 - k0 - k1  # old values per pipe
    pipe = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(values)) - (np.cumsum(count) - count - k0)[pipe]
    old_pos = 2 * pipe + k / n_old[pipe]
    pipe = np.repeat(np.arange(len(n_new)), n_new)
    k = np.arange(len(pipe)) - (np.cumsum(n_new) - n_new - 1)[pipe]
    lo, hi = k0 / n_old[pipe], (n_old - k1)[pipe] / n_old[pipe]
    return np.interp(2 * pipe + np.clip(k / n_new[pipe], lo, hi), old_pos, values)


def _initial_point(inst: NlpInstance, warm: Iterate = None) -> np.ndarray:
    """The midpoints of the bounds and a straight line between the end
    pressures of each pipe; or the iterate `warm`, its scalar variables as
    they are and the pressure profile of each pipe regridded."""
    finite_lb = np.where(np.isfinite(inst.lb), inst.lb, 0.0)
    finite_ub = np.where(np.isfinite(inst.ub), inst.ub, finite_lb + 100.0)
    x = 0.5 * (finite_lb + finite_ub)
    # cold, each pipe is regridded from one interval: its end pressures
    old_x, old_n = x[: inst.n_scalar], np.ones_like(inst.pipe_n)
    if warm is not None:
        x[: inst.n_scalar] = warm.x[: inst.n_scalar]
        old_x, old_n = warm.x, warm.pipe_n
    # each pipe's old profile p_from, interior pressures, p_to: its end
    # pressures inserted at the start s_i and the end e_i of its block of
    # n_old - 1; where e_i = s_{i+1}, np.insert keeps the order given
    at = np.cumsum(np.column_stack([np.zeros_like(old_n), old_n - 1]))
    profile = np.insert(old_x[inst.n_scalar :], at, old_x[inst.ends[:2]].ravel("F"))
    x[inst.n_scalar :] = _regrid(profile, old_n, 0, 0, inst.pipe_n)[inst.inner]
    return x


def _warm_multipliers(inst: NlpInstance, warm: Iterate, y, zl, zu):
    """Overwrite y, zl and zu in place with the multipliers of `warm`: as
    they are for the linear rows and scalar variables, regridded onto this
    instance's grid for each pipe; an interior pressure has no upper bound,
    so zu keeps its zero there."""
    n_lin = inst.linear_A.shape[0]
    y[:n_lin] = warm.y[:n_lin]
    zl[: inst.n_scalar], zu[: inst.n_scalar] = warm.z[:, : inst.n_scalar]
    y[n_lin:] = _regrid(warm.y[n_lin:], warm.pipe_n, 1, 0, inst.pipe_n)
    zl_pipes = _regrid(warm.z[0, inst.n_scalar :], warm.pipe_n, 1, 1, inst.pipe_n)
    zl[inst.n_scalar :] = zl_pipes[inst.inner]


def _extract_solution(
    inst, x, status, kkt_error, iterations, seconds, iterate=None, reason=""
):
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
        iterate=iterate,
        reason=reason,
    )


# -- interior-point solver ------------------------------------------------


def _fixed_mask(lb, ub):
    return (ub - lb) <= 1e-12 * np.maximum(1.0, np.abs(lb))


def _lower_solve(band, b, trans="N"):
    """A^-1 b, or A^-T b for trans="T", along the last axis of b, for the
    stacked lower bidiagonal A of the pipe bands; RuntimeError when a
    diagonal entry of A is exactly zero."""
    if not b.shape[-1]:  # dtbtrs rejects an empty band
        return b
    columns = b.reshape(-1, b.shape[-1]).T  # Fortran-ordered, as dtbtrs takes
    x, info = lapack.dtbtrs(band[0], columns, uplo="L", trans=trans)
    if info > 0:
        raise RuntimeError(f"pipe band: A({info},{info}) is exactly zero")
    return x.T.reshape(b.shape)


def _h_product(band, x):
    """H x along the last axis of x, for the stacked tridiagonal H of the
    pipe bands."""
    _, h_diag, h_sub = band
    hx = h_diag * x
    hx[..., 1:] += h_sub[1:] * x[..., :-1]
    hx[..., :-1] += h_sub[1:] * x[..., 1:]
    return hx


class KktSystem:
    """The Newton system K = [[W + diag(sigma + delta_w), J^T], [J, -E]] of
    one instance, its rows the free variables and then the constraints in
    assembly order, solved as pipe bands plus a small border.

    Band: each pipe's relations r_1..r_{n-1} and interior pressures
    p_1..p_{n-1}. Keeping r_n out makes A, the derivative of these relations
    at these pressures, square and lower bidiagonal: they are independent,
    and E, 1e-12 on the constraint rows for the dependent mass balances,
    leaves them out. Stacked over the pipes, A and H, the part of
    W + diag(sigma + delta_w) at the interior pressures, are one bidiagonal
    and one tridiagonal matrix with zero coupling between pipes, and the
    band B = [[H, A^T], [A, 0]] is block-triangular once its block rows are
    swapped: B^-1 [b_p; b_r] = [x; A^-T (b_p - H x)] with x = A^-1 b_r,
    nothing is factored, and inertia(K) = (N, N, 0) + inertia(S) for the N
    band pressures.

    Border: the node pressures, flows, lifts, linear rows and each pipe's
    last relation r_n. K is symmetric, and a pipe's band touches the border
    only through four slots, its q, r_n, p_from and p_to, so each pipe adds
    one 4x4 block to the Schur complement S = D - C^T B^-1 C of the border
    block D, which SuperLU factors. Only C's column q is dense over the
    band; its other columns hold one entry per pipe. With u = A^-1 [C_r,q |
    C_r,from], C^T B^-1 C = M + M^T - u^T H u for M = C_p^T u: a
    factorization is one two-column triangular solve and five sums over the
    band, and a back-solve is two triangular solves, v = A^-1 r_r, whence
    the band pressures v - u z, and A^-T for the band relations. A, H, C and
    D are written from the gridpoint derivatives of `NlpInstance.jacobian`
    and `lagrangian_hessian`. delta_w carries over from one step to the next.

    Residual: K z - r, from the same derivatives with the W dx and J^T dy
    terms of each relation summed and scattered once, checks each back-solve;
    above 1e-12 relative to r it is refined once, and above 1e-8 * max(1,
    max |r|) after that the factorization fails and delta_w rises.
    """

    def __init__(self, inst: NlpInstance):
        self.inst = inst
        free = ~_fixed_mask(inst.lb, inst.ub)
        self.free_idx = np.flatnonzero(free)
        nfree = len(self.free_idx)
        size = nfree + inst.n_cons
        pos = np.full(inst.n_vars, -1)  # the row of each variable in K
        pos[free] = np.arange(nfree)
        row0 = nfree + inst.linear_A.shape[0]  # the row of the first relation

        # the band relations, whose p_k is an interior pressure; a pipe's
        # relations run from first to last, its band rows from starts to ends
        self.inner, self.first, self.last = inst.inner, inst.first, inst.last
        self.starts = self.first - np.arange(len(self.first))
        ends = self.last - 1 - np.arange(len(self.last))
        self.band_rows = inst.pipe_n - 1  # per pipe
        # the band row of each pipe's entry of C_p at r_n, p_from and p_to
        self.end_rows = np.stack([ends, self.starts, ends])
        self.band_p, self.band_r = pos[inst.ipk[self.inner]], row0 + self.inner
        # r_1, p_1, r_2, ..., p_{n-1} per pipe: K has half-width 2 there
        self.band = np.column_stack([self.band_r, self.band_p]).ravel()
        rest = np.ones(size, dtype=bool)
        rest[self.band] = False
        self.border = np.flatnonzero(rest)
        n_border = len(self.border)
        # the border row of each row of K; a fixed variable (row -1) lands
        # on n_border, one past the end, which is dropped
        in_border = np.full(size + 1, n_border)
        in_border[self.border] = np.arange(n_border)

        # the slots q, r_n, p_from, p_to of each pipe as border rows, 4 x n_pipes
        p_from, p_to, q = pos[inst.ends]
        self.slots = in_border[np.stack([q, row0 + self.last, p_from, p_to])]

        # S: its diagonal, the linear rows and their transpose, then the 4x4
        # block of each pipe at its slots
        lin = inst.linear_A.tocoo()
        lin_row, lin_col = in_border[nfree + lin.row], in_border[pos[lin.col]]
        keep = lin_col < n_border
        self.lin_values = lin.data[keep]
        block_row = np.repeat(self.slots[:, None], 4, axis=1).ravel()
        block_col = np.repeat(self.slots[None], 4, axis=0).ravel()
        self.block = (block_row < n_border) & (block_col < n_border)
        diag = np.arange(n_border)
        self.s_shape = (n_border, n_border)
        rows = [diag, lin_row[keep], lin_col[keep], block_row[self.block]]
        cols = [diag, lin_col[keep], lin_row[keep], block_col[self.block]]
        self.s_pattern = _pattern(  # CSC: the CSR pattern of S^T
            np.concatenate(cols), np.concatenate(rows), self.s_shape
        )
        # -E, the -1e-12 of the constraint rows but the band relations
        self.reg = np.full(inst.n_cons, -1e-12)
        self.reg[self.inner + inst.linear_A.shape[0]] = 0.0
        self.delta_w = 0.0

    def _parts(self, W, J, diag):
        """The band (A in LAPACK's lower band storage, H's diagonal and
        subdiagonal); C as c_p and c_r, its pressure rows at q and relation
        rows at q and p_from, and c_ends, its one pressure row per pipe at r_n,
        p_from and p_to; and D at each pipe's slots, 4 x 4 x n_pipes; from the
        gridpoint derivatives and the diagonal of K but for W."""
        d_pkm1, d_pk, d_q = J
        h_pk_pk, h_pk_pkm1, h_q_pkm1, h_q_pk, h_qq = W
        inner, first, last, starts = self.inner, self.first, self.last, self.starts
        # A[j, j] at ab[0, j], A[j, j-1] at ab[1, j-1], in dtbtrs's Fortran
        # order; H[j, j-1] at h_sub[j]; both zero where row j starts a pipe
        ab = np.zeros((2, len(inner)), order="F")
        ab[0] = d_pk[inner]
        ab[1, :-1] = d_pkm1[inner[1:]]
        ab[1, starts[1:] - 1] = 0.0
        h_diag = h_pk_pk[inner] + diag[self.band_p]
        h_sub = h_pk_pkm1[inner]
        h_sub[starts] = 0.0

        c_p = h_q_pk[inner] + h_q_pkm1[inner + 1]  # W(p_j, q)
        c_r = np.zeros((2, len(inner)))
        c_r[0] = d_q[inner]  # J(r_k, q)
        c_r[1, starts] = d_pkm1[first]  # J(r_1, p_from)
        # J(r_n, p_{n-1}), W(p_1, p_from) and W(p_{n-1}, p_to), at end_rows
        c_ends = np.stack([d_pkm1[last], h_pk_pkm1[first], h_pk_pkm1[last]])

        # J(r_n, q), W(q, p_from), W(q, p_to) and J(r_n, p_to), mirrored;
        # then W(q, q) and W(p_to, p_to)
        d = np.zeros((4, 4, len(first)))
        d[0, 1:], d[1, 3] = (d_q[last], h_q_pkm1[first], h_q_pk[last]), d_pk[last]
        d += d.transpose(1, 0, 2)
        d[0, 0], d[3, 3] = np.add.reduceat(h_qq, first), h_pk_pk[last]
        return (ab, h_diag, h_sub), c_p, c_r, c_ends, d

    def _factor(self, W, J, sigma, delta_w):
        """(band, c_p, c_ends, u = A^-1 c_r, SuperLU of S), C as in `_parts`;
        RuntimeError when A is singular."""
        diag = np.concatenate([sigma[self.free_idx] + delta_w, self.reg])
        band, c_p, c_r, c_ends, d = self._parts(W, J, diag)
        # B^-1 C = [u; A^-T (C_p - H u)]: C^T B^-1 C = M + M^T - u^T H u
        u = _lower_solve(band, c_r)
        hu = _h_product(band, u)
        terms = [c_p * u[0], c_p * u[1], u[0] * hu[0], u[0] * hu[1], u[1] * hu[1]]
        sums = np.add.reduceat(terms, self.starts, axis=1)
        # M^T, 2 x 4 x n_pipes: the dense slot q, then the end entries
        m_t = np.concatenate([sums[:2, None], c_ends * u[:, self.end_rows]], axis=1)
        d[::2] -= m_t
        d[:, ::2] -= m_t.transpose(1, 0, 2)
        d[::2, ::2] += sums[[[2, 3], [3, 4]]]
        values = [diag[self.border], self.lin_values, self.lin_values]
        values.append(d.ravel()[self.block])
        S = _fill(self.s_pattern, np.concatenate(values), self.s_shape)
        # SuperLU keeps its partial pivoting, which the -1e-12 rows need;
        # its default column order keeps the fill of S low on meshed borders
        return band, c_p, c_ends, u, spla.splu(S)

    def _solve(self, factors, r):
        """z with K z = r: S z_border = r_border - C^T B^-1 r_band, then
        z_band = B^-1 (r_band - C z_border)."""
        band, c_p, c_ends, u, s_lu = factors
        n_border = len(self.border)
        r_p, r_r = r[self.band_p], r[self.band_r]
        # C^T B^-1 r_band = C_p^T v + u^T (r_p - H v) with v = A^-1 r_r
        v = _lower_solve(band, r_r)
        w = r_p - _h_product(band, v)
        sums = np.add.reduceat([c_p * v + u[0] * w, u[1] * w], self.starts, axis=1)
        ct = np.vstack([sums[0], c_ends * v[self.end_rows]])
        ct[2] += sums[1]
        ct = np.bincount(self.slots.ravel(), ct.ravel(), n_border + 1)
        z = np.empty_like(r)
        z[self.border] = z_border = s_lu.solve(r[self.border] - ct[:n_border])
        # B^-1 (r_band - C z_border): the pressures x = A^-1 (r_r - C_r z)
        # = v - u z, then the relations A^-T (r_p - C_p z - H x)
        z_slots = np.append(z_border, 0.0)[self.slots]
        z_q, z_from = np.repeat(z_slots[::2], self.band_rows, axis=1)
        z[self.band_p] = x = v - u[0] * z_q - u[1] * z_from
        b_p = r_p - c_p * z_q - _h_product(band, x)
        np.subtract.at(b_p, self.end_rows, c_ends * z_slots[1:])
        z[self.band_r] = _lower_solve(band, b_p, "T")
        return z

    def _split(self, z, n):
        """(dx, dy) of z, dx as an n-vector that is zero at fixed variables."""
        dx = np.zeros(n)
        dx[self.free_idx] = z[: len(self.free_idx)]
        return dx, z[len(self.free_idx) :]

    def _product(self, W, J, sigma, delta_w, z):
        """K z, from the gridpoint derivatives W and J: the W dx and J^T dy
        terms of each relation are summed, then scattered once."""
        inst = self.inst
        n_lin = inst.linear_A.shape[0]
        dx, dy = self._split(z, len(sigma))
        dm, dp, dq, dr = dx[inst.ipkm1], dx[inst.ipk], dx[inst.iq], dy[n_lin:]
        d_pkm1, d_pk, d_q = J
        h_pk_pk, h_pk_pkm1, h_q_pkm1, h_q_pk, h_qq = W
        top = inst._scatter(
            h_pk_pkm1 * dp + h_q_pkm1 * dq + d_pkm1 * dr,
            h_pk_pk * dp + h_pk_pkm1 * dm + h_q_pk * dq + d_pk * dr,
            h_q_pkm1 * dm + h_q_pk * dp + h_qq * dq + d_q * dr,
        )
        top += inst.linear_AT @ dy[:n_lin] + (sigma + delta_w) * dx
        j_dx = d_pkm1 * dm + d_pk * dp + d_q * dq
        bottom = np.concatenate([inst.linear_A @ dx, j_dx]) + self.reg * dy
        return np.concatenate([top[self.free_idx], bottom])

    def step(self, W, J, sigma, rd, c):
        """(dx, dy) from K [dx_free, dy] = -[rd_free, c], with dx zero at
        fixed variables; None when the factorization fails at 12 increasing
        values of delta_w, as it does when the residual stays above
        1e-8 * max(1, max |rhs|) after refinement."""
        rhs = -np.concatenate([rd[self.free_idx], c])
        scale = max(1.0, np.max(np.abs(rhs)))
        delta_w = self.delta_w
        for _ in range(12):
            with contextlib.suppress(RuntimeError, ValueError):
                factors = self._factor(W, J, sigma, delta_w)
                z = self._solve(factors, rhs)
                # one round of iterative refinement, only when the residual
                # is above 1e-12 relative to the right-hand side
                res = self._product(W, J, sigma, delta_w, z) - rhs
                if np.max(np.abs(res)) > 1e-12 * scale:
                    z -= self._solve(factors, res)
                    res = self._product(W, J, sigma, delta_w, z) - rhs
                if np.max(np.abs(res)) <= 1e-8 * scale:
                    break
            # a singular factor or a residual above its bound: regularize more
            delta_w = max(1e-8, 10.0 * delta_w)
        else:
            return None
        self.delta_w = delta_w / 3.0
        return self._split(z, len(sigma))


def check_eps_opt(eps_opt: float) -> None:
    """ValueError unless eps_opt is positive and finite: at eps_opt <= 0 no
    KKT error meets the tolerance, at NaN none is compared true with it, and
    at inf every one does, the start point included."""
    if not eps_opt > 0.0:
        raise ValueError(f"eps_opt = {eps_opt} must be positive")
    if eps_opt == np.inf:
        raise ValueError(f"eps_opt = {eps_opt} must be finite")


def solve(
    inst: NlpInstance,
    warm_start: NlpSolution = None,
    eps_opt: float = DEFAULT_EPS_OPT,
    max_iterations: int = 500,
) -> NlpSolution:
    """Primal-dual interior-point solve with a logarithmic barrier on bounds,
    damped Newton steps on the perturbed KKT system, and a
    fraction-to-the-boundary rule. A warm start continues from the iterate
    of a solve on the same network; ValueError for any other solution."""
    check_eps_opt(eps_opt)
    t0 = time.perf_counter()
    ids = (tuple(inst.net.nodes), tuple(inst.net.pipes), tuple(inst.net.compressors))
    warm = None if warm_start is None else warm_start.iterate
    if warm_start is not None and (warm is None or warm.ids != ids):
        raise ValueError("a warm start needs the iterate of a solve on this network")
    n, m = inst.n_vars, inst.n_cons
    fixed = _fixed_mask(inst.lb, inst.ub)
    # the finite bounds of the free variables, the lower bounds and then the
    # upper ones, as one vector: bound b of variable var[b] has the slack
    # sign[b] * (x[var[b]] - bound[b]) and the multiplier z[b]; `at` places
    # them in the two rows, lower and upper, of Iterate.z
    bounds = np.stack([inst.lb, inst.ub])
    at = np.flatnonzero(np.isfinite(bounds) & ~fixed)
    bound, var = bounds.ravel()[at], at % n
    n_lower = np.searchsorted(at, n)
    lower, upper = var[:n_lower], var[n_lower:]
    sign = np.where(at < n, 1.0, -1.0)

    def slack(x):
        return sign * (x[var] - bound)

    def inside(x, edge):
        """x, in place, moved onto the inner side of each bound's `edge`."""
        x[lower] = np.maximum(x[lower], edge[:n_lower])
        x[upper] = np.minimum(x[upper], edge[n_lower:])
        return x

    x = _initial_point(inst, warm)
    x[fixed] = inst.lb[fixed]
    # push strictly inside the bounds; a warm start is presumed near-optimal,
    # so barely perturb it
    margin = 1e-12 if warm is not None else 1e-2
    gap = (inst.ub - inst.lb)[var]
    scale = np.maximum(1.0, np.abs(bound))
    x = inside(x, bound + sign * np.minimum(margin * scale, 1e-2 * gap))
    # a machine-precision slack keeps 1/slack finite even when an infeasible
    # instance pushes the iterate onto its bounds
    eps_edge = bound + sign * (np.finfo(float).eps * scale)

    kkt_system = KktSystem(inst)
    mu_min = max(eps_opt / 10.0, 1e-14)

    # a warm start continues at the final barrier parameter from the
    # multipliers of the previous solve, carried over onto this instance
    mu = 0.1 if warm is None else mu_min
    y = np.zeros(m)
    z = np.clip(mu / np.maximum(slack(x), 1e-8), 0.0, 1e8)
    if warm is not None:
        z_rows = np.zeros((2, n))
        _warm_multipliers(inst, warm, y, *z_rows)
        z = np.maximum(z_rows.ravel()[at], 1e-16)
    nu = 1.0  # l1 penalty weight for the merit function
    best_viol = np.inf
    stall = 0

    def dual_residual(gy, z):
        """grad f + J^T y - z_lower + z_upper, from gy = grad f + J^T y."""
        g = gy.copy()
        g[lower] -= z[:n_lower]
        g[upper] += z[n_lower:]
        return g

    def kkt_errors(s, gy, c, y, z):
        """The primal KKT error, and the KKT error at mu as a function of mu."""
        s_d = max(1.0, (np.sum(np.abs(y)) + np.sum(z)) / max(1, m + n) / 100.0)
        g = dual_residual(gy, z)[kkt_system.free_idx]
        e_dual = np.max(np.abs(g), initial=0.0) / s_d
        e_primal = np.max(np.abs(c), initial=0.0)

        def at_mu(mu):
            return max(e_dual, e_primal, np.max(np.abs(s * z - mu), initial=0.0) / s_d)

        return e_primal, at_mu

    def merit(x, c):
        """The barrier objective plus the l1 penalty on the constraints c."""
        barrier = np.sum(np.log(np.maximum(slack(x), 1e-300)))
        return inst.objective(x) + nu * np.sum(np.abs(c)) - mu * barrier

    iterations = 0
    status, reason = STATUS_ITERATION_LIMIT, REASON_ITERATION_LIMIT
    c, J = inst.constraints(x), inst.jacobian(x)  # evaluated once per iterate
    while iterations < max_iterations:
        iterations += 1
        s = slack(x)
        gy = inst.grad + inst.jacobian_t_product(J, y)
        e_primal, kkt_at = kkt_errors(s, gy, c, y, z)
        kkt = kkt_at(0.0)
        if kkt <= eps_opt:
            status, reason = STATUS_OPTIMAL, REASON_CONVERGED
            break
        if not np.isfinite(kkt):  # no verdict on the problem from a NaN
            status, reason = STATUS_ITERATION_LIMIT, REASON_NOT_FINITE
            break

        # infeasibility heuristic: constraint violation stalls well above tol
        if e_primal < best_viol * 0.9999:
            best_viol = e_primal
            stall = 0
        else:
            stall += 1
        if stall >= 30 and best_viol > 1e4 * eps_opt:
            status, reason = STATUS_INFEASIBLE, REASON_STALLED
            break

        if kkt_at(mu) <= 10.0 * mu and mu > mu_min:
            mu = max(mu_min, 0.2 * mu)
            continue

        sigma = np.zeros(n)
        sigma[lower] = z[:n_lower] / s[:n_lower]
        sigma[upper] += z[n_lower:] / s[n_lower:]
        # condensed dual residual with the complementarity equations folded in
        rd = dual_residual(gy, mu / s)
        newton = kkt_system.step(inst.lagrangian_hessian(x, y), J, sigma, rd, c)
        if newton is None:
            status, reason = STATUS_ITERATION_LIMIT, REASON_FACTORIZATION
            break
        dx, dy = newton
        ds = sign * dx[var]  # the step of the slacks
        dz = (mu - z * ds) / s - z

        # fraction-to-the-boundary
        tau = max(0.99, 1.0 - mu)
        shrink = ds < 0.0
        alpha_p = np.min(-tau * s[shrink] / ds[shrink], initial=1.0)
        shrink = (dz < 0.0) & (z > 0.0)
        alpha_d = np.min(-tau * z[shrink] / dz[shrink], initial=1.0)

        # Armijo backtracking on the l1 merit function
        nu = max(nu, 2.0 * np.max(np.abs(y), initial=0.0) + 1.0)
        phi0 = merit(x, c)
        dphi = inst.objective(dx) - nu * np.sum(np.abs(c))
        dphi -= mu * np.sum(ds / s)
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

        x = inside(x_trial, eps_edge)
        y = y + alpha_d * dy
        # clip duals so sigma stays within a bounded multiple of mu/slack
        z = np.clip(z + alpha_d * dz, 1e-16, 1e16)
        z = np.clip(z, mu / (1e10 * s), 1e10 * mu / s)
        c, J = inst.constraints(x), inst.jacobian(x)
    else:  # the iteration limit, or no iteration at all
        gy = inst.grad + inst.jacobian_t_product(J, y)
        kkt = kkt_errors(slack(x), gy, c, y, z)[1](0.0)
    if status == STATUS_ITERATION_LIMIT and kkt <= eps_opt:
        status, reason = STATUS_OPTIMAL, REASON_CONVERGED
    seconds = time.perf_counter() - t0
    z_rows = np.zeros(2 * n)
    z_rows[at] = z
    iterate = Iterate(x, y, z_rows.reshape(2, n), inst.pipe_n, ids)
    return _extract_solution(inst, x, status, kkt, iterations, seconds, iterate, reason)

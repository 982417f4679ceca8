"""Finite-dimensional NLP assembly and a primal-dual interior-point solver.

The instance carries node pressures, arc flows, compressor lifts, and
interior pipe pressures; each pipe contributes its implicit-Euler relation
per gridpoint as an equality constraint. Internally pressures are scaled
to bar so that residual tolerances are meaningful across the whole
variable vector; the public solution is plain SI.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleProblem, IterationLimit
from .integrate import interval_count
from .models import pipe_coefficients
from .network import GasParameters, Network, Scenario, slope_of, validate_scenario

PRESSURE_SCALE = 1e5  # internal pressure unit is bar
FLOW_SMOOTHING = 1e-6  # kg/s, smooths |q| q at q = 0
PRESSURE_FLOOR = 1e4  # Pa, protects 1/p terms
DEFAULT_EPS_OPT = 1e-8  # the KKT error at which every solve stops
MAX_ITERATIONS = 500  # the Newton steps after which a solve gives up

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
    pipe_states: dict  # pipe id -> (level, stepsize), as assembled
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
    # the linear rows A x = b: the (row, column, value) of each nonzero of A
    # in CSR order
    n_lin: int = 0
    linear: tuple = None
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

    def linear_product(self, x):
        """A x, each row summed in column order as a CSR product sums it:
        `np.bincount` sums in the order of its input."""
        rows, cols, values = self.linear
        return np.bincount(rows, values * x[cols], self.n_lin)

    def linear_t_product(self, y):
        """A^T y for the linear rows' part y of a multiplier vector, each
        column summed in row order: CSR order lists a column's entries by
        ascending row, as a CSR product with A^T sums them."""
        rows, cols, values = self.linear
        return np.bincount(cols, values * y[rows], self.n_vars)

    def constraints(self, x):
        pk, pkm1 = x[self.ipk], x[self.ipkm1]
        _, bq2, kphi = self._flow_terms(x, 0)
        r = (pk - pkm1) * (1.0 - bq2 / pk**2) + kphi / pk + self.grav_coef * pk
        return np.concatenate([self.linear_product(x) - self.linear_b, r])

    def jacobian(self, x):
        """The derivatives of each gridpoint relation at its p_{k-1}, p_k and
        q, the rows of a (3, n_relations) array; the linear rows of J are
        A, `linear`."""
        pk, pkm1 = x[self.ipk], x[self.ipkm1]
        delta = pk - pkm1
        bq, bq2, kphi, kdphi = self._flow_terms(x, 1)
        ram = 1.0 - bq2 / pk**2
        d_pk = ram + 2.0 * delta * bq2 / pk**3 - kphi / pk**2 + self.grav_coef
        d_q = -2.0 * delta * bq / pk**2 + kdphi / pk
        return np.array([-ram, d_pk, d_q])

    def lagrangian_hessian(self, x, y):
        """W = sum_k y_k * Hess(r_k) over the gridpoint relations, as the five
        distinct entries of each relation's term: the rows (p_k, p_k),
        (p_k, p_{k-1}), (q, p_{k-1}), (q, p_k) and (q, q) of a
        (5, n_relations) array. The linear rows contribute nothing."""
        y = y[self.n_lin :]
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
        return np.array([h_pk_pk, h_pk_pkm1, h_q_pkm1, h_q_pk, h_qq])

    def jacobian_t_product(self, J, y):
        """J^T y, J from `jacobian`."""
        n_lin = self.n_lin
        return self.linear_t_product(y[:n_lin]) + self._scatter(*(J * y[n_lin:]))

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
    pipe_states: dict  # pipe id -> (level, stepsize) of the grid solved on
    # the final iterate, from which a solve on the same network can start
    iterate: Iterate = None
    reason: str = ""  # why the solve stopped, one of the REASON_* phrases


def assemble(
    net: Network, scn: Scenario, gas: GasParameters, state: dict
) -> NlpInstance:
    """Build the NLP for the given per-pipe (level, stepsize) assignment,
    which the instance keeps and its solutions name; ValidationError for a
    scenario that `validate_scenario` rejects on this network."""
    validate_scenario(net, scn)
    _load_scipy()
    inst = NlpInstance(net=net, pipe_states=state)
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
    inst.ends = np.array([from_node[:n_pipes], to_node[:n_pipes], flows[:n_pipes]])
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

    # the linear rows: the mass balance of each node, +1 at the flow of each
    # arc into it and -1 at each arc out of it, then the coupling p_to -
    # p_from - lift of each compressor; the last node's balance, which the
    # others imply, gets row n_lin and is left out. An arc joins two
    # different nodes, so no (row, column) repeats; the entries are kept in
    # CSR order
    n_lin = inst.n_lin = max(n_nodes - 1, 0) + n_comps
    balance = np.append(np.arange(n_nodes - 1), n_lin)  # the row of each node
    coupling = np.arange(n_lin - n_comps, n_lin)
    rows = np.concatenate([balance[to_node], balance[from_node], np.tile(coupling, 3)])
    cols = np.concatenate([flows, flows, to_node[n_pipes:], from_node[n_pipes:], lifts])
    data = np.repeat([1.0, -1.0, 1.0, -1.0, -1.0], [len(arcs)] * 2 + [n_comps] * 3)
    keep = rows < n_lin
    order = np.lexsort((cols[keep], rows[keep]))
    inst.linear = rows[keep][order], cols[keep][order], data[keep][order]
    flows_at = [scn.flow_at(n) for n in net.nodes][:-1]
    inst.linear_b = np.array(flows_at + [0.0] * n_comps, dtype=float)
    inst.n_cons = n_lin + len(inst.ipk)
    return inst


# -- warm starting -------------------------------------------------------


def _regrid(profiles, n_old, n_new):
    """Each profile, each pipe's values at its gridpoints k/n_old, k =
    0..n_old, pipe after pipe, interpolated onto its gridpoints k/n_new, k =
    1..n_new by one `np.interp` on positions shared by all profiles: pipe i's
    gridpoints move to [2i, 2i + 1], exactly for power-of-two counts."""
    if not len(n_old):  # no pipes: np.interp rejects an empty grid
        return profiles

    def positions(n, k0):  # repeated per point: a gather by pipe costs more
        count = n + 1 - k0
        pipe = np.repeat(np.arange(len(n)), count)
        k = np.arange(len(pipe)) - np.repeat(np.cumsum(count) - count - k0, count)
        return 2 * pipe + k / np.repeat(n, count)

    old_pos, new_pos = positions(n_old, 0), positions(n_new, 1)
    return [np.interp(new_pos, old_pos, values) for values in profiles]


def _initial_point(inst: NlpInstance, warm: Iterate = None) -> tuple:
    """(x, y, z), z the bound multipliers as Iterate lays them out: the
    midpoint of two finite bounds, else the point of the bounds nearest 0, a
    straight line between the end pressures of each pipe and zero
    multipliers; or the iterate `warm`, each pipe's pressures and
    multipliers regridded and the rest as it is."""
    n_scalar, n_lin = inst.n_scalar, inst.n_lin
    x = np.clip(0.0, inst.lb, inst.ub)
    both = np.isfinite(inst.lb) & np.isfinite(inst.ub)
    x[both] = 0.5 * (inst.lb[both] + inst.ub[both])
    y, z = np.zeros(inst.n_cons), np.zeros((2, inst.n_vars))
    # cold, each pipe is regridded from one interval: its end pressures
    old_x, old_n = x[:n_scalar], np.ones_like(inst.pipe_n)
    if warm is not None:
        old_x, old_n = warm.x, warm.pipe_n
        x[:n_scalar], y[:n_lin] = old_x[:n_scalar], warm.y[:n_lin]
        z[:, :n_scalar] = warm.z[:, :n_scalar]
    # each pipe's old profile at k = 0..n_old: p_from, interior pressures,
    # p_to, its end pressures inserted at the start s_i and the end e_i of its
    # block of n_old - 1; where e_i = s_{i+1}, np.insert keeps the order given
    at = np.cumsum(np.column_stack([np.zeros_like(old_n), old_n - 1]))
    profiles = [np.insert(old_x[n_scalar:], at, old_x[inst.ends[:2]].ravel("F"))]
    if warm is not None:
        # a multiplier repeats its nearest value where it has none, which
        # np.interp returns there: y of k = 1..n_old at k = 0, and zl of the
        # interior pressures at both ends (an interior zu is zero: no bound)
        y_old, zl_old = warm.y[n_lin:], warm.z[0, n_scalar:]
        first = np.cumsum(old_n) - old_n
        profiles.append(np.insert(y_old, first, y_old[first]))
        held = at - np.tile([0, 1], len(old_n))  # s_i and e_i - 1
        profiles.append(np.insert(zl_old, at, zl_old[held]))
    x_pipes, *multipliers = _regrid(profiles, old_n, inst.pipe_n)
    x[n_scalar:] = x_pipes[inst.inner]
    if warm is not None:
        y[n_lin:], z[0, n_scalar:] = multipliers[0], multipliers[1][inst.inner]
    return x, y, z


def _extract_solution(inst, x, status, kkt_error, iterations, iterate, reason):
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
        pipe_states=dict(inst.pipe_states),
        iterate=iterate,
        reason=reason,
    )


# -- interior-point solver ------------------------------------------------


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
    """The Newton system K = [[W + diag(sigma + delta_w), J^T], [J, 0]] of
    one instance, its rows the free variables and then the constraints in
    assembly order, solved as pipe bands plus a small border. Without the
    implied mass balance J has full row rank, and y is unique.

    Band: each pipe's relations r_1..r_{n-1} and interior pressures
    p_1..p_{n-1}. Keeping r_n out makes A, the derivative of these relations
    at these pressures, square and lower bidiagonal. Stacked over the pipes,
    A and H, the part of W + diag(sigma + delta_w) at the interior
    pressures, are one bidiagonal and one tridiagonal matrix with zero
    coupling between pipes, and the band B = [[H, A^T], [A, 0]] is
    block-triangular once its block rows are swapped: B^-1 [b_p; b_r] =
    [x; A^-T (b_p - H x)] with x = A^-1 b_r, nothing is factored, and
    inertia(K) = (N, N, 0) + inertia(S) for the N band pressures.

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
    above 1e-12 * max(1, max |r|) it is refined once. After that a normwise
    backward error max |K z - r| / (k max |z| + max |r|) above 1e-10 fails
    the factorization and delta_w rises (Rigal & Gaches 1967; Higham 2002,
    Thm 7.1): k = max(|W|, |J|, sigma + delta_w, 1) stands in for K's
    largest entry, a lower bound on ||K||_inf.
    """

    def __init__(self, inst: NlpInstance):
        self.inst = inst
        # fixed where the bounds meet and lb is finite: -inf reads inf <= inf
        lb, ub = inst.lb, inst.ub
        self.fixed = np.isfinite(lb) & (ub - lb <= 1e-12 * np.maximum(1.0, abs(lb)))
        self.free_idx = np.flatnonzero(~self.fixed)
        nfree = len(self.free_idx)
        size = nfree + inst.n_cons
        pos = np.full(inst.n_vars, -1)  # the row of each variable in K
        pos[self.free_idx] = np.arange(nfree)
        row0 = nfree + inst.n_lin  # the row of the first relation

        # the band relations, whose p_k is an interior pressure; a pipe's
        # relations run from first to last, its band rows from starts to ends
        self.inner, self.first, self.last = inst.inner, inst.first, inst.last
        self.starts = self.first - np.arange(len(self.first))
        ends = self.last - 1 - np.arange(len(self.last))
        self.band_rows = inst.pipe_n - 1  # per pipe
        # the band row of each pipe's entry of C_p at r_n, p_from and p_to
        self.end_rows = np.array([ends, self.starts, ends])
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
        self.slots = in_border[np.array([q, row0 + self.last, p_from, p_to])]

        # S: its diagonal, the linear rows and their transpose, then the 4x4
        # block of each pipe at its slots
        lin_row, lin_col, lin_data = inst.linear
        lin_row, lin_col = in_border[nfree + lin_row], in_border[pos[lin_col]]
        keep = lin_col < n_border
        self.lin_values = lin_data[keep]
        block_row = np.repeat(self.slots[:, None], 4, axis=1).ravel()
        block_col = np.repeat(self.slots[None], 4, axis=0).ravel()
        self.block = (block_row < n_border) & (block_col < n_border)
        diag = np.arange(n_border)
        rows = [diag, lin_row[keep], lin_col[keep], block_row[self.block]]
        cols = [diag, lin_col[keep], lin_row[keep], block_col[self.block]]
        indices, indptr, self.s_scatter = _pattern(  # CSC: the CSR pattern of S^T
            np.concatenate(cols), np.concatenate(rows), (n_border, n_border)
        )
        # one matrix whose values each factorization overwrites: scipy checks
        # the format of a matrix once, not at each construction
        self.S = sp.csc_matrix(
            (np.zeros(len(indices)), indices, indptr), shape=(n_border, n_border)
        )
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
        c_ends = np.array([d_pkm1[last], h_pk_pkm1[first], h_pk_pkm1[last]])

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
        diag = sigma[self.free_idx] + delta_w
        diag = np.concatenate([diag, np.zeros(self.inst.n_cons)])
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
        self.S.data[:] = np.bincount(
            self.s_scatter, np.concatenate(values), len(self.S.data)
        )
        # SuperLU keeps its partial pivoting for the zeros on the diagonal of
        # S; its default column order keeps the fill of S low on meshed borders
        return band, c_p, c_ends, u, spla.splu(self.S)

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
        n_lin = inst.n_lin
        dx, dy = self._split(z, len(sigma))
        dm, dp, dq, dr = dx[inst.ipkm1], dx[inst.ipk], dx[inst.iq], dy[n_lin:]
        d_pkm1, d_pk, d_q = J
        h_pk_pk, h_pk_pkm1, h_q_pkm1, h_q_pk, h_qq = W
        top = inst._scatter(
            h_pk_pkm1 * dp + h_q_pkm1 * dq + d_pkm1 * dr,
            h_pk_pk * dp + h_pk_pkm1 * dm + h_q_pk * dq + d_pk * dr,
            h_q_pkm1 * dm + h_q_pk * dp + h_qq * dq + d_q * dr,
        )
        top += inst.linear_t_product(dy[:n_lin]) + (sigma + delta_w) * dx
        j_dx = d_pkm1 * dm + d_pk * dp + d_q * dq
        bottom = np.concatenate([inst.linear_product(dx), j_dx])
        return np.concatenate([top[self.free_idx], bottom])

    def step(self, W, J, sigma, rd, c):
        """(dx, dy) from K [dx_free, dy] = -[rd_free, c], with dx zero at
        fixed variables; None when the factorization fails at 12 increasing
        values of delta_w, as it does when the step is not finite or its
        backward error stays above 1e-10 after refinement."""
        rhs = -np.concatenate([rd[self.free_idx], c])
        r_max, sigma_max = abs(rhs).max(), sigma.max(initial=0.0)
        k_wj = max(abs(W).max(initial=1.0), abs(J).max(initial=1.0))
        delta_w = self.delta_w
        for _ in range(12):
            with contextlib.suppress(RuntimeError):
                factors = self._factor(W, J, sigma, delta_w)
                z = self._solve(factors, rhs)
                # one round of iterative refinement, when the residual needs it
                res = self._product(W, J, sigma, delta_w, z) - rhs
                if abs(res).max() > 1e-12 * max(1.0, r_max):
                    z -= self._solve(factors, res)
                    res = self._product(W, J, sigma, delta_w, z) - rhs
                # |res| <= 1e-10 (k |z| + r_max), each term times 2^e with
                # |z| < 2^-e: exact, free of overflow, and false at inf or NaN
                res_max, z_max = abs(res).max(), abs(z).max()
                k, e = max(k_wj, sigma_max + delta_w), -max(0, math.frexp(z_max)[1])
                res_s, z_s, r_s = (math.ldexp(v, e) for v in (res_max, z_max, r_max))
                if math.isfinite(z_max) and res_s <= 1e-10 * (k * z_s + r_s):
                    break
            # a singular factor or a backward error above its bound: regularize
            delta_w = max(1e-8, 10.0 * delta_w)
        else:
            return None
        self.delta_w = delta_w / 3.0
        return self._split(z, len(sigma))


def solve(inst: NlpInstance, warm_start: NlpSolution = None) -> NlpSolution:
    """Primal-dual interior-point solve with a logarithmic barrier on bounds,
    damped Newton steps on the perturbed KKT system, and a
    fraction-to-the-boundary rule. A warm start continues from the iterate
    of a solve on the same network; ValueError for any other solution."""
    ids = (tuple(inst.net.nodes), tuple(inst.net.pipes), tuple(inst.net.compressors))
    warm = None if warm_start is None else warm_start.iterate
    if warm_start is not None and (warm is None or warm.ids != ids):
        raise ValueError("a warm start needs the iterate of a solve on this network")
    n, m = inst.n_vars, inst.n_cons
    kkt_system = KktSystem(inst)
    fixed = kkt_system.fixed
    # the finite bounds of the free variables as one vector, in the order of
    # their flat index `at` into the two rows (lb, ub) of `bounds`, which
    # places them in Iterate.z too: bound b of variable var[b] has the slack
    # sign[b] * (x[var[b]] - bound[b]) and the multiplier z[b]
    bounds = np.array([inst.lb, inst.ub])
    at = np.flatnonzero(np.isfinite(bounds) & ~fixed)
    bound, var = bounds.ravel()[at], at % n
    sign = np.where(at < n, 1.0, -1.0)

    def slack(x):
        return sign * (x[var] - bound)

    def inside(x, edge):
        """Move x, in place, onto the inner side of each bound's `edge`;
        whether that moved a coordinate."""
        moved = sign * (x[var] - edge) < 0.0
        x[var[moved]] = edge[moved]
        return moved.any()

    x, y, z = _initial_point(inst, warm)
    x[fixed] = inst.lb[fixed]
    # push strictly inside the bounds; a warm start is presumed near-optimal,
    # so barely perturb it
    margin = 1e-12 if warm is not None else 1e-2
    gap = (inst.ub - inst.lb)[var]
    scale = np.maximum(1.0, np.abs(bound))
    inside(x, bound + sign * np.minimum(margin * scale, 1e-2 * gap))
    # a machine-precision slack keeps 1/slack finite even when an infeasible
    # instance pushes the iterate onto its bounds
    eps_edge = bound + sign * (np.finfo(float).eps * scale)

    mu_min = DEFAULT_EPS_OPT / 10.0

    # a warm start continues at the final barrier parameter from the
    # multipliers of the previous solve, carried over onto this instance
    mu = 0.1 if warm is None else mu_min
    if warm is None:
        z = np.clip(mu / np.maximum(slack(x), 1e-8), 0.0, 1e8)
    else:
        z = np.maximum(z.ravel()[at], 1e-16)
    nu = 1.0  # l1 penalty weight for the merit function
    best_viol = np.inf
    stall = 0

    def dual_residual(gy, z):
        """grad f + J^T y - sign z summed at var, from gy = grad f + J^T y."""
        g = gy.copy()
        np.subtract.at(g, var, sign * z)
        return g

    def kkt_errors(s, gy, c, y, z):
        """The primal KKT error, and the KKT error at mu as a function of mu."""
        s_d = max(1.0, (abs(y).sum() + z.sum()) / max(1, m + n) / 100.0)
        g = dual_residual(gy, z)[kkt_system.free_idx]
        e_dual = abs(g).max(initial=0.0) / s_d
        e_primal = abs(c).max(initial=0.0)

        def at_mu(mu):
            return max(e_dual, e_primal, abs(s * z - mu).max(initial=0.0) / s_d)

        return e_primal, at_mu

    def merit(x, c):
        """The barrier objective plus the l1 penalty on the constraints c."""
        barrier = np.log(np.maximum(slack(x), 1e-300)).sum()
        return inst.objective(x) + nu * abs(c).sum() - mu * barrier

    status, reason = STATUS_ITERATION_LIMIT, REASON_ITERATION_LIMIT
    c, J = inst.constraints(x), inst.jacobian(x)  # evaluated once per iterate
    stepped = True  # whether x, y and z moved since the last iteration
    for iterations in range(1, MAX_ITERATIONS + 2):
        if stepped:  # a mu decrease leaves the errors as they are
            s = slack(x)
            gy = inst.grad + inst.jacobian_t_product(J, y)
            e_primal, kkt_at = kkt_errors(s, gy, c, y, z)
            kkt = kkt_at(0.0)
        if kkt <= DEFAULT_EPS_OPT:
            status, reason = STATUS_OPTIMAL, REASON_CONVERGED
            break
        if iterations > MAX_ITERATIONS:  # a last pass only tests the final iterate
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
        if stall >= 30 and best_viol > 1e4 * DEFAULT_EPS_OPT:
            status, reason = STATUS_INFEASIBLE, REASON_STALLED
            break

        if kkt_at(mu) <= 10.0 * mu and mu > mu_min:
            mu = max(mu_min, 0.2 * mu)
            stepped = False
            continue
        stepped = True

        sigma = np.bincount(var, z / s, n)
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
        alpha_p = (-tau * s[shrink] / ds[shrink]).min(initial=1.0)
        shrink = (dz < 0.0) & (z > 0.0)
        alpha_d = (-tau * z[shrink] / dz[shrink]).min(initial=1.0)

        # Armijo backtracking on the l1 merit function. The penalty weight
        # stays above 2 |y|_inf, and falls back to 2 |y|_inf + 1 from ten
        # times that: kept high after the multipliers fall, nu |c|_1 outgrows
        # the objective's decrease, and full steps fail the test
        req = 2.0 * abs(y).max(initial=0.0) + 1.0
        nu = req if nu > 10.0 * req else max(nu, req)
        phi0 = merit(x, c)
        dphi = inst.objective(dx) - nu * abs(c).sum()
        dphi -= mu * (ds / s).sum()
        alpha = alpha_p
        for _ in range(30):
            x_trial = x + alpha * dx
            c_trial = inst.constraints(x_trial)
            phi_trial = merit(x_trial, c_trial)
            if phi_trial <= phi0 + 1e-4 * alpha * min(dphi, 0.0) or phi_trial < phi0:
                break
            alpha *= 0.5
        else:
            # fall back to a tiny step to escape; if it persists the stall
            # counter above will trigger
            alpha = min(alpha_p, 1e-8)
            x_trial, c_trial = x + alpha * dx, None

        # the accepted trial's constraint values are the new iterate's,
        # unless `inside` moves it
        x, c = x_trial, c_trial
        if inside(x, eps_edge) or c is None:
            c = inst.constraints(x)
        J = inst.jacobian(x)
        y = y + alpha_d * dy
        # clip duals so sigma stays within a bounded multiple of mu/slack
        z = np.minimum(np.maximum(z + alpha_d * dz, 1e-16), 1e16)
        z = np.minimum(np.maximum(z, mu / (1e10 * s)), 1e10 * mu / s)
    iterations = min(iterations, MAX_ITERATIONS)  # the last pass takes no step
    z_rows = np.zeros(2 * n)
    z_rows[at] = z
    iterate = Iterate(x, y, z_rows.reshape(2, n), inst.pipe_n, ids)
    return _extract_solution(inst, x, status, kkt, iterations, iterate, reason)


def raise_unless_optimal(sol: NlpSolution, where: str = "") -> None:
    """InfeasibleProblem or IterationLimit naming the solve (`where`, such as
    " at solve 3") and its reason, unless the solve reached a local optimum."""
    if sol.status == STATUS_INFEASIBLE:
        raise InfeasibleProblem(f"NLP infeasible{where}: {sol.reason}")
    if sol.status != STATUS_OPTIMAL:
        raise IterationLimit(f"NLP stopped{where}: {sol.reason}")

"""Outer adaptive control loop: marking, model switching, grid adaptation.

The loop alternates mu rounds of refine/switch-up with one round of
coarsen/switch-down and terminates as soon as the average per-pipe total
error estimate drops below the tolerance.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass, field

from . import nlp
from .errors import EmptyNetwork, IterationLimit
from .estimators import estimate_with_alternatives
from .models import ModelLevel
from .network import GasParameters, Network, Scenario, slope_of

@dataclass
class AdaptiveConfig:
    eps: float = 10.0  # Pa; the canonical configuration unit is bar (1e-4 bar)
    theta_d: float = 0.7
    theta_m: float = 0.7
    phi_d: float = 0.3
    phi_m: float = 0.3
    tau: float = 1.1
    mu: int = 4
    max_outer_iterations: int = 100
    initial_intervals: int = 4
    initial_level: int = 3

    def __post_init__(self):
        for name in ("theta_d", "theta_m", "phi_d", "phi_m"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} = {value} outside [0, 1]")
        if not 1.0 <= self.tau < math.inf:
            raise ValueError(f"tau = {self.tau} must be finite and >= 1")
        # both count loop rounds, so a float such as 2.5 is no count
        if not isinstance(self.mu, numbers.Integral) or self.mu < 1:
            raise ValueError(f"mu = {self.mu} must be a positive integer")
        outer = self.max_outer_iterations
        if not isinstance(outer, numbers.Integral) or outer < 0:
            raise ValueError(f"max_outer_iterations = {outer} must be an integer >= 0")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps = {self.eps} must be positive and finite")
        if self.initial_intervals % 4 != 0 or self.initial_intervals <= 0:
            raise ValueError("initial_intervals must be a positive multiple of 4")
        if self.initial_level not in tuple(ModelLevel):
            raise ValueError(f"initial_level = {self.initial_level} is not 1, 2 or 3")


@dataclass
class TraceRecord:
    solve_index: int
    outer_k: int
    inner_j: int
    n_vars: int
    n_cons: int
    nlp_seconds: float
    ivp_seconds: float
    sum_eta_d: float
    sum_eta_m: float
    sum_eta: float
    avg_eta: float
    n_refined: int
    n_switched_up: int
    n_coarsened: int
    n_switched_down: int


@dataclass
class AdaptiveState:
    levels: dict = field(default_factory=dict)  # pipe id -> ModelLevel
    stepsizes: dict = field(default_factory=dict)  # pipe id -> h [m]
    solution: nlp.NlpSolution = None
    estimates: dict = field(default_factory=dict)  # pipe id -> ErrorEstimate
    trace: list = field(default_factory=list)


# -- model switch-up rule --------------------------------------------------


def switch_up_target(level, eta_m, eps) -> tuple:
    """(new level, eta_m[level] - eta_m[new level]) of a pipe with the
    {level: eta_m} table `eta_m`: one step finer if that alone cuts the
    model error by more than eps, otherwise level 1, where eta_m is 0."""
    level = ModelLevel.of(level)
    if level != ModelLevel.FULL:
        finer = ModelLevel.of(level - 1)
        reduction = eta_m[level] - eta_m[finer]
        if reduction > eps:
            return finer, reduction
    return ModelLevel.FULL, eta_m[level] - eta_m[ModelLevel.FULL]


# -- marking strategies ------------------------------------------------------


def mark_refine(eta_d: dict, theta_d: float) -> set:
    """Greedy bulk marking: largest values first, until the marked ones reach
    theta_d times the sum of all."""
    target = theta_d * sum(eta_d.values())
    marked, acc = set(), 0.0
    for pid in sorted(eta_d, key=lambda p: (-eta_d[p], p)):
        if acc >= target:
            break
        marked.add(pid)
        acc += eta_d[pid]
    return marked


def mark_switch_up(eta_m_reduction: dict, theta_m: float, eps: float) -> set:
    """Greedy marking among pipes whose switch-up reduction exceeds eps."""
    return mark_refine({p: r for p, r in eta_m_reduction.items() if r > eps}, theta_m)


def mark_coarsen(eta_d: dict, phi_d: float, eligible=None) -> set:
    """Greedy maximal set: smallest values first among the eligible pipes,
    while the marked ones stay within phi_d times the sum over all pipes.

    Pipes already at their coarsest admissible grid are left out of
    `eligible`; by default every pipe is eligible."""
    budget = phi_d * sum(eta_d.values())
    marked, acc = set(), 0.0
    candidates = eta_d if eligible is None else eligible
    for pid in sorted(set(candidates), key=lambda p: (eta_d[p], p)):
        if acc + eta_d[pid] <= budget:
            marked.add(pid)
            acc += eta_d[pid]
        else:
            break
    return marked


def mark_switch_down(eta_m_increase: dict, phi_m: float, tau: float, eps: float) -> set:
    """Greedy maximal set by ascending model-error increase, restricted to
    pipes whose increase stays below tau * eps."""
    return mark_coarsen(
        {p: inc for p, inc in eta_m_increase.items() if inc <= tau * eps}, phi_m
    )


def validate_parameters(config: AdaptiveConfig, n_pipes: int) -> list:
    """Check the strict finite-termination inequalities (evaluated with the
    existential constant sent to zero); violations are warnings, not errors."""
    warnings = []
    lhs1 = 0.5 * config.theta_d * config.mu
    rhs1 = config.phi_d
    if not lhs1 > rhs1:
        warnings.append(
            "refinement/coarsening inequality violated: "
            f"0.5 * theta_d * mu = {lhs1} <= phi_d = {rhs1}"
        )
    lhs2 = config.theta_m * config.mu
    rhs2 = config.tau * config.phi_m * n_pipes
    if not lhs2 > rhs2:
        warnings.append(
            "model switching inequality violated: "
            f"theta_m * mu = {lhs2} <= tau * phi_m * n_pipes = {rhs2}"
        )
    return warnings


# -- estimator evaluation ---------------------------------------------------


def compute_estimates(
    net: Network,
    gas: GasParameters,
    sol: nlp.NlpSolution,
    levels: dict,
    stepsizes: dict,
    neighbours=(),
) -> tuple:
    """Per-pipe error estimates at the current NLP solution, in pipe-id
    order, and per pipe its eta_m at its own level, at level 1 (0, no march)
    and at level + d, clamped to 1-3, for each offset d in `neighbours`: the
    levels the next marking round reads."""
    estimates, eta_m_by_level = {}, {}
    for pid in sorted(net.pipes):
        pipe, level = net.pipes[pid], levels[pid]
        # the march the NLP discretizes: from the from-node, with signed flow
        estimates[pid], eta_m_by_level[pid] = estimate_with_alternatives(
            pipe,
            gas,
            sol.node_pressures[pipe.from_node],
            sol.arc_flows[pid],
            level,
            stepsizes[pid],
            slope=slope_of(pipe, net),
            extra_levels=(
                ModelLevel.FULL,
                *(min(max(level + d, 1), 3) for d in neighbours),
            ),
        )
    return estimates, eta_m_by_level


# -- the control loop --------------------------------------------------------


def run(
    net: Network,
    scn: Scenario,
    gas: GasParameters,
    config: AdaptiveConfig,
    progress=None,
) -> tuple:
    """Adaptive model and discretization control; returns the accepted NLP
    solution and the full adaptation state including the trace."""
    if not net.pipes:
        raise EmptyNetwork("adaptive control requires at least one pipe")

    state = AdaptiveState()
    for pid, pipe in net.pipes.items():
        state.levels[pid] = ModelLevel.of(config.initial_level)
        state.stepsizes[pid] = pipe.length / config.initial_intervals

    eps, mu = config.eps, config.mu
    marked_refine = marked_up = marked_coarsen = marked_down = ()
    # solve 0, then mu inner rounds per outer iteration
    outer = range(1, config.max_outer_iterations + 1)
    for k, j in itertools.chain([(0, 0)], itertools.product(outer, range(1, mu + 1))):
        if j >= 1:  # refine and switch up, by the last solve's estimates
            targets = {
                pid: switch_up_target(level, eta_m_by_level[pid], eps)
                for pid, level in state.levels.items()
            }
            reductions = {pid: r for pid, (_, r) in targets.items()}
            marked_up = mark_switch_up(reductions, config.theta_m, eps)
            marked_refine = mark_refine(eta_d, config.theta_d)

            for pid in marked_up:
                state.levels[pid] = targets[pid][0]
            for pid in marked_refine:
                state.stepsizes[pid] /= 2.0

        # solve at the current levels and stepsizes, warm from the last
        # solution, and record the pipes marked since the last solve
        solve_index = len(state.trace)
        pipe_state = {
            pid: (state.levels[pid], state.stepsizes[pid]) for pid in net.pipes
        }
        instance = nlp.assemble(net, scn, gas, pipe_state)
        t0 = time.perf_counter()
        sol = nlp.solve(instance, warm_start=state.solution)
        nlp_seconds = time.perf_counter() - t0
        nlp.raise_unless_optimal(sol, f" at solve {solve_index}")
        # a switch-up round reads eta_m one level down; the switch-down round
        # after the mu-th solve also one level up, and the switch-up round
        # after it the switched pipes' old level, one below their new one
        neighbours = (-1, 1) if j == mu else (-1,)
        t0 = time.perf_counter()
        estimates, eta_m_by_level = compute_estimates(
            net, gas, sol, state.levels, state.stepsizes, neighbours
        )
        ivp_seconds = time.perf_counter() - t0
        state.solution = sol
        state.estimates = estimates
        eta_d = {pid: e.eta_d for pid, e in estimates.items()}
        sum_d = sum(eta_d.values())
        sum_m = sum(e.eta_m for e in estimates.values())
        record = TraceRecord(
            solve_index=solve_index,
            outer_k=k,
            inner_j=j,
            n_vars=instance.n_vars,
            n_cons=instance.n_cons,
            nlp_seconds=nlp_seconds,
            ivp_seconds=ivp_seconds,
            sum_eta_d=sum_d,
            sum_eta_m=sum_m,
            sum_eta=sum_d + sum_m,
            avg_eta=(sum_d + sum_m) / len(estimates),
            n_refined=len(marked_refine),
            n_switched_up=len(marked_up),
            n_coarsened=len(marked_coarsen),
            n_switched_down=len(marked_down),
        )
        state.trace.append(record)
        if progress is not None:
            progress(record)
        if record.avg_eta <= eps:
            return state.solution, state
        marked_coarsen = marked_down = ()

        if j == mu:  # coarsen and switch down
            increases = {
                pid: eta_m_by_level[pid][level + 1] - eta_m_by_level[pid][level]
                for pid, level in state.levels.items()
                if level != ModelLevel.FRICTION
            }
            marked_down = mark_switch_down(increases, config.phi_m, config.tau, eps)
            coarsenable = {
                pid
                for pid, pipe in net.pipes.items()
                if state.stepsizes[pid] < pipe.length / config.initial_intervals
            }
            marked_coarsen = mark_coarsen(eta_d, config.phi_d, eligible=coarsenable)

            for pid in marked_down:
                state.levels[pid] = ModelLevel.of(state.levels[pid] + 1)
            for pid in marked_coarsen:
                state.stepsizes[pid] *= 2.0

    raise IterationLimit(
        f"no eps-feasible solution within {config.max_outer_iterations} outer iterations"
    )

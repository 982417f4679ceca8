"""Outer adaptive control loop: marking, model switching, grid adaptation.

The loop alternates mu rounds of refine/switch-up with one round of
coarsen/switch-down and terminates as soon as the average per-pipe total
error estimate drops below the tolerance.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

from . import nlp
from .errors import EmptyNetwork, InfeasibleProblem, IterationLimit
from .estimators import estimate_with_alternatives, network_error_summary
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
    eps_opt: float = nlp.DEFAULT_EPS_OPT
    max_outer_iterations: int = 100
    initial_intervals: int = 4
    initial_level: int = 3
    split_tolerance: bool = False  # check feasibility against eps - eps_opt

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
        nlp.check_eps_opt(self.eps_opt)
        if self.initial_intervals % 4 != 0 or self.initial_intervals <= 0:
            raise ValueError("initial_intervals must be a positive multiple of 4")
        if self.initial_level not in tuple(ModelLevel):
            raise ValueError(f"initial_level = {self.initial_level} is not 1, 2 or 3")
        if self.split_tolerance and self.eps_opt >= self.eps:
            raise ValueError("tolerance splitting requires eps_opt < eps")

    @property
    def eps_feasibility(self) -> float:
        """Tolerance used in the feasibility checks of the loop."""
        return self.eps - self.eps_opt if self.split_tolerance else self.eps


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
    initial_stepsizes: dict = field(default_factory=dict)
    solution: nlp.NlpSolution = None
    estimates: dict = field(default_factory=dict)  # pipe id -> ErrorEstimate
    # pipe id -> {level: eta_m}, level 1 included at 0
    eta_m_by_level: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)


# -- model switch-up rule --------------------------------------------------


def switch_up_target(level, eta_m_at, eps) -> ModelLevel:
    """Next level when switching up: one step if that alone reduces the model
    error by more than eps, otherwise straight to the most accurate model."""
    level = ModelLevel.of(level)
    if level == ModelLevel.FULL:
        return ModelLevel.FULL
    reduction = eta_m_at(level) - eta_m_at(ModelLevel.of(level - 1))
    if reduction > eps:
        return ModelLevel.of(level - 1)
    return ModelLevel.FULL


# -- marking strategies ------------------------------------------------------


def _mark_to_reach(values: dict, theta: float) -> set:
    """Largest values first, until the marked ones reach theta times the sum
    of all."""
    target = theta * sum(values.values())
    marked, acc = set(), 0.0
    for pid in sorted(values, key=lambda p: (-values[p], p)):
        if acc >= target:
            break
        marked.add(pid)
        acc += values[pid]
    return marked


def _mark_within(values: dict, budget: float, candidates) -> set:
    """Smallest values first among the candidates, while the marked ones
    stay within the budget."""
    marked, acc = set(), 0.0
    for pid in sorted(set(candidates), key=lambda p: (values[p], p)):
        if acc + values[pid] <= budget:
            marked.add(pid)
            acc += values[pid]
        else:
            break
    return marked


def mark_refine(eta_d: dict, theta_d: float) -> set:
    """Greedy bulk marking by descending discretization error."""
    return _mark_to_reach(eta_d, theta_d)


def mark_switch_up(eta_m_reduction: dict, theta_m: float, eps: float) -> set:
    """Greedy marking among pipes whose switch-up reduction exceeds eps."""
    return _mark_to_reach(
        {p: r for p, r in eta_m_reduction.items() if r > eps}, theta_m
    )


def mark_coarsen(eta_d: dict, phi_d: float, eligible=None) -> set:
    """Greedy maximal set by ascending discretization error within the budget.

    Pipes already at their coarsest admissible grid are passed via
    `eligible`; the budget is always taken over all pipes."""
    return _mark_within(
        eta_d, phi_d * sum(eta_d.values()), eta_d if eligible is None else eligible
    )


def mark_switch_down(eta_m_increase: dict, phi_m: float, tau: float, eps: float) -> set:
    """Greedy maximal set by ascending model-error increase, restricted to
    pipes whose increase stays below tau * eps."""
    eligible = {p: inc for p, inc in eta_m_increase.items() if inc <= tau * eps}
    return _mark_within(eligible, phi_m * sum(eligible.values()), eligible)


def is_eps_feasible(estimates, eps: float) -> bool:
    return network_error_summary(estimates) <= eps


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
) -> tuple:
    """Per-pipe error estimates at the current NLP solution, in pipe-id
    order, and per pipe its eta_m at level 1 and at the levels next to its
    own, which the switch-up and switch-down marking read."""

    def one(pipe):
        # the march the NLP discretizes: from the from-node, with signed flow
        level = levels[pipe.id]
        return estimate_with_alternatives(
            pipe,
            gas,
            sol.node_pressures[pipe.from_node],
            sol.arc_flows[pipe.id],
            level,
            stepsizes[pipe.id],
            slope=slope_of(pipe, net),
            extra_levels=(ModelLevel.FULL, max(level - 1, 1), min(level + 1, 3)),
        )

    bundles = {pid: one(net.pipes[pid]) for pid in sorted(net.pipes)}
    estimates = {pid: b.estimate for pid, b in bundles.items()}
    return estimates, {pid: b.eta_m_by_level for pid, b in bundles.items()}


def _switch_up_targets(levels, eta_m_by_level, eps):
    """Per pipe, the level the switch-up rule picks and the model-error
    reduction eta_m(level) - eta_m(new level) it brings."""
    targets = {}
    for pid, level in levels.items():
        by_level = eta_m_by_level[pid]
        target = switch_up_target(level, by_level.__getitem__, eps)
        targets[pid] = (target, by_level[level] - by_level[target])
    return targets


def _switch_down_increases(levels, eta_m_by_level):
    """eta_m(min(level+1, 3)) - eta_m(level) for pipes below level 3."""
    return {
        pid: eta_m_by_level[pid][ModelLevel.of(level + 1)] - eta_m_by_level[pid][level]
        for pid, level in levels.items()
        if level != ModelLevel.FRICTION
    }


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
        state.initial_stepsizes[pid] = state.stepsizes[pid]

    eps = config.eps_feasibility

    def solve_and_estimate(outer_k, inner_j, refined=(), up=(), coarsened=(), down=()):
        """Solve at the current levels and stepsizes, warm from the last
        solution, and append the trace record that counts the pipes marked
        since the last solve; True if its average estimate is within eps."""
        solve_index = len(state.trace)
        pipe_state = {
            pid: (state.levels[pid], state.stepsizes[pid]) for pid in net.pipes
        }
        instance = nlp.assemble(net, scn, gas, pipe_state)
        sol = nlp.solve(instance, warm_start=state.solution, eps_opt=config.eps_opt)
        if sol.status == nlp.STATUS_INFEASIBLE:
            raise InfeasibleProblem(
                f"NLP infeasible at solve {solve_index}: {sol.reason}"
            )
        if sol.status == nlp.STATUS_ITERATION_LIMIT:
            raise IterationLimit(f"NLP stopped at solve {solve_index}: {sol.reason}")
        t0 = time.perf_counter()
        estimates, eta_m_by_level = compute_estimates(
            net, gas, sol, state.levels, state.stepsizes
        )
        ivp_seconds = time.perf_counter() - t0
        state.solution = sol
        state.estimates = estimates
        state.eta_m_by_level = eta_m_by_level
        sum_d = sum(e.eta_d for e in estimates.values())
        sum_m = sum(e.eta_m for e in estimates.values())
        record = TraceRecord(
            solve_index=solve_index,
            outer_k=outer_k,
            inner_j=inner_j,
            n_vars=instance.n_vars,
            n_cons=instance.n_cons,
            nlp_seconds=sol.solve_seconds,
            ivp_seconds=ivp_seconds,
            sum_eta_d=sum_d,
            sum_eta_m=sum_m,
            sum_eta=sum_d + sum_m,
            avg_eta=(sum_d + sum_m) / len(estimates),
            n_refined=len(refined),
            n_switched_up=len(up),
            n_coarsened=len(coarsened),
            n_switched_down=len(down),
        )
        state.trace.append(record)
        if progress is not None:
            progress(record)
        return record.avg_eta <= eps

    if solve_and_estimate(0, 0):
        return state.solution, state

    marked_coarsen = marked_down = ()
    for k in range(1, config.max_outer_iterations + 1):
        for j in range(1, config.mu + 1):
            targets = _switch_up_targets(state.levels, state.eta_m_by_level, eps)
            reductions = {pid: r for pid, (_, r) in targets.items()}
            marked_up = mark_switch_up(reductions, config.theta_m, eps)
            eta_d = {pid: e.eta_d for pid, e in state.estimates.items()}
            marked_refine = mark_refine(eta_d, config.theta_d)

            for pid in marked_up:
                state.levels[pid] = targets[pid][0]
            for pid in marked_refine:
                state.stepsizes[pid] /= 2.0

            marks = (marked_refine, marked_up, marked_coarsen, marked_down)
            if solve_and_estimate(k, j, *marks):
                return state.solution, state
            marked_coarsen = marked_down = ()

        increases = _switch_down_increases(state.levels, state.eta_m_by_level)
        marked_down = mark_switch_down(increases, config.phi_m, config.tau, eps)
        eta_d = {pid: e.eta_d for pid, e in state.estimates.items()}
        coarsenable = {
            pid
            for pid in net.pipes
            if state.stepsizes[pid] < state.initial_stepsizes[pid]
        }
        marked_coarsen = mark_coarsen(eta_d, config.phi_d, eligible=coarsenable)

        for pid in marked_down:
            state.levels[pid] = ModelLevel.of(min(state.levels[pid] + 1, 3))
        for pid in marked_coarsen:
            state.stepsizes[pid] *= 2.0

    raise IterationLimit(
        f"no eps-feasible solution within {config.max_outer_iterations} outer iterations"
    )

"""Per-pipe discretization and model error estimators.

All norms are max norms over the coarse evaluation grid (stepsize 4h).
The discretization estimator compares two level-1 integrations at 2h and
4h; the model estimator compares the level-1 2h profile against the
currently used model integrated at h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyNetwork
from .models import ModelLevel
from .integrate import Grid, integrate, interval_count, restrict_to_grid
from .network import GasParameters, Pipe


@dataclass(frozen=True)
class ErrorEstimate:
    pipe_id: str
    eta_d: float  # Pa
    eta_m: float  # Pa
    level: ModelLevel
    stepsize: float  # m

    @property
    def eta(self) -> float:
        return self.eta_d + self.eta_m


def _grids(pipe: Pipe, h: float):
    n = interval_count(pipe, h)
    fine = Grid(h, n)
    double = Grid(2.0 * h, n // 2)
    evaluation = Grid(4.0 * h, n // 4)
    return fine, double, evaluation


def discretization_error(pipe, gas, p0, q, h, slope=0.0, ref_2h=None) -> float:
    """Max-norm difference of the level-1 profiles at 2h and 4h on the
    evaluation grid."""
    _, double, evaluation = _grids(pipe, h)
    if ref_2h is None:
        ref_2h = integrate(ModelLevel.FULL, pipe, gas, p0, q, double, slope)
    coarse = integrate(ModelLevel.FULL, pipe, gas, p0, q, evaluation, slope)
    diff = restrict_to_grid(ref_2h, evaluation).values - coarse.values
    return float(np.max(np.abs(diff)))


def model_error(pipe, gas, p0, q, level, h, slope=0.0, ref_2h=None) -> float:
    """Max-norm difference between the level-1 2h profile and the level-l
    profile at h on the evaluation grid; zero at level 1 by definition."""
    level = ModelLevel.of(level)
    if level == ModelLevel.FULL:
        return 0.0
    fine, double, evaluation = _grids(pipe, h)
    if ref_2h is None:
        ref_2h = integrate(ModelLevel.FULL, pipe, gas, p0, q, double, slope)
    current = integrate(level, pipe, gas, p0, q, fine, slope)
    diff = (
        restrict_to_grid(ref_2h, evaluation).values
        - restrict_to_grid(current, evaluation).values
    )
    return float(np.max(np.abs(diff)))


def total_error(pipe, gas, p0, q, level, h, slope=0.0) -> ErrorEstimate:
    """The (eta_d, eta_m) pair from exactly three integrations: level 1 at
    2h and 4h, and the current level at h."""
    return estimate_with_alternatives(pipe, gas, p0, q, level, h, slope).estimate


@dataclass(frozen=True)
class PipeEstimateBundle:
    """Estimate at the current level plus model errors at alternative levels
    needed by the marking strategies."""

    estimate: ErrorEstimate
    eta_m_by_level: dict  # ModelLevel -> eta_m at that level


def estimate_with_alternatives(
    pipe, gas, p0, q, level, h, slope=0.0, extra_levels=()
) -> PipeEstimateBundle:
    """Total error plus eta_m at the extra levels, sharing the 2h reference."""
    level = ModelLevel.of(level)
    _, double, _ = _grids(pipe, h)
    ref_2h = integrate(ModelLevel.FULL, pipe, gas, p0, q, double, slope)
    eta_d = discretization_error(pipe, gas, p0, q, h, slope, ref_2h=ref_2h)
    by_level = {}
    for other in map(ModelLevel.of, (level, *extra_levels)):
        if other not in by_level:
            by_level[other] = model_error(
                pipe, gas, p0, q, other, h, slope, ref_2h=ref_2h
            )
    estimate = ErrorEstimate(pipe.id, eta_d, by_level[level], level, h)
    return PipeEstimateBundle(estimate, by_level)


def network_error_summary(estimates) -> float:
    """Average total error per pipe."""
    estimates = list(estimates)
    if not estimates:
        raise EmptyNetwork("no pipe estimates to average")
    return sum(e.eta for e in estimates) / len(estimates)

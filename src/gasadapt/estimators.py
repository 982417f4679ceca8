"""Per-pipe discretization and model error estimators.

All norms are max norms over the coarse evaluation grid (stepsize 4h).
The reference is the level-1 profile at 2h. The discretization estimator
compares it with the level-1 profile at 4h; the model estimator compares it
with the currently used model integrated at h.
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import ModelLevel
from .integrate import Grid, integrate, interval_count


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


def estimate_with_alternatives(
    pipe, gas, p0, q, level, h, slope=0.0, extra_levels=()
) -> tuple:
    """The estimate at the current level and {level: eta_m} at the current
    and the extra levels, from one march per grid and level: level 1 at 2h
    (the reference) and 4h, and each distinct level other than 1 at h; eta_m
    is 0 at level 1."""
    level = ModelLevel.of(level)
    n = interval_count(pipe, h)

    def march(at_level, factor):
        # the profile at factor * h, on the 4h gridpoints
        grid = Grid(factor * h, n // factor)
        return integrate(at_level, pipe, gas, p0, q, grid, slope)[:: 4 // factor]

    reference = march(ModelLevel.FULL, 2)

    def distance(values):
        return float(abs(reference - values).max())

    eta_d = distance(march(ModelLevel.FULL, 4))
    by_level = {
        other: 0.0 if other == ModelLevel.FULL else distance(march(other, 1))
        for other in dict.fromkeys(map(ModelLevel.of, (level, *extra_levels)))
    }
    return ErrorEstimate(pipe.id, eta_d, by_level[level], level, h), by_level


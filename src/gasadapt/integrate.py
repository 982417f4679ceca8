"""Implicit-Euler integration of the discretized pipe models.

Each step is the largest root of a polynomial in the next gridpoint
pressure: a quadratic in closed form at levels 2 and 3, a cubic polished by
Newton from that root at level 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DrainedPipe,
    IncompatibleGrids,
    InvalidGrid,
    NewtonDivergence,
    NonPositivePressure,
    SonicFlow,
)
from .models import SONIC_GUARD, ModelLevel, pipe_coefficients
from .network import GasParameters, Pipe

NEWTON_RTOL = 1e-10
NEWTON_MAX_ITER = 50
GRID_RTOL = 1e-9


@dataclass(frozen=True)
class Grid:
    stepsize: float  # m
    n_intervals: int

    def __post_init__(self):
        if self.n_intervals <= 0:
            raise InvalidGrid(f"n_intervals {self.n_intervals} must be positive")
        if self.stepsize <= 0.0:
            raise InvalidGrid(f"stepsize {self.stepsize} must be positive")

    @classmethod
    def for_pipe(cls, length: float, n_intervals: int) -> "Grid":
        """Primary pipe grid; the interval count must allow the 2h and 4h
        subgrids used by the error estimators."""
        if n_intervals <= 0 or n_intervals % 4 != 0:
            raise InvalidGrid(
                f"n_intervals {n_intervals} is not a positive multiple of 4"
            )
        return cls(stepsize=length / n_intervals, n_intervals=n_intervals)

    @property
    def length(self) -> float:
        return self.stepsize * self.n_intervals

    def positions(self) -> np.ndarray:
        return np.arange(self.n_intervals + 1) * self.stepsize

    def coarsened(self, factor: int) -> "Grid":
        if self.n_intervals % factor != 0:
            raise InvalidGrid(
                f"cannot coarsen {self.n_intervals} intervals by factor {factor}"
            )
        return Grid(self.stepsize * factor, self.n_intervals // factor)


def interval_count(pipe: Pipe, h: float) -> int:
    """L/h for the pipe; it must be a multiple of 4 so that the 2h and 4h
    subgrids of the error estimators exist."""
    n = round(pipe.length / h)
    if n % 4 != 0 or not math.isclose(n * h, pipe.length, rel_tol=GRID_RTOL):
        raise InvalidGrid(
            f"pipe {pipe.id}: L/h = {pipe.length / h} is not a multiple of 4"
        )
    return n


@dataclass(frozen=True)
class PressureProfile:
    grid: Grid
    values: np.ndarray  # Pa, one per gridpoint
    level: ModelLevel
    flow: float  # kg/s

    def endpoint(self) -> float:
        return float(self.values[-1])


def _implicit_step(p_prev, hK, ha, b):
    """Next gridpoint pressure of the implicit Euler step, i.e. the largest
    root of (1 + h alpha) p^3 - p_prev p^2 + (hK - b) p + b p_prev = 0, which
    is p^2 times p - p_prev - h rhs(p) with hK = h K and b = beta q^2.

    b = 0 (levels 2 and 3, or no flow) leaves the quadratic
    (1 + h alpha) p^2 - p_prev p + hK = 0, solved in closed form. At level 1
    Newton runs on the cubic from that quadratic root; the cubic is convex
    there, so the iterates approach the subsonic root monotonically."""
    a = 1.0 + ha
    disc = p_prev * p_prev - 4.0 * a * hK
    if disc < 0.0 and b == 0.0:
        raise DrainedPipe(f"implicit step from p={p_prev} has no real root")
    if disc < 0.0:
        raise SonicFlow(f"implicit step from p={p_prev} has no subsonic root")
    p = (p_prev + math.sqrt(disc)) / (2.0 * a)
    if b == 0.0:
        return p
    for _ in range(NEWTON_MAX_ITER):
        f = ((a * p - p_prev) * p + hK - b) * p + b * p_prev
        fprime = (3.0 * a * p - 2.0 * p_prev) * p + hK - b
        if fprime <= 0.0:
            raise SonicFlow(f"implicit step from p={p_prev} has no subsonic root")
        step = f / fprime
        p -= step
        # every iterate now lies above the root: if it is sonic, so is the root
        if p <= 0.0 or 1.0 - b / (p * p) <= SONIC_GUARD:
            raise SonicFlow(f"implicit step from p={p_prev} has no subsonic root")
        if abs(step) <= NEWTON_RTOL * p:
            return p
    raise NewtonDivergence(f"implicit step from p={p_prev} did not converge")


def integrate(
    level: ModelLevel,
    pipe: Pipe,
    gas: GasParameters,
    p0: float,
    q: float,
    grid: Grid,
    slope: float = 0.0,
) -> PressureProfile:
    """March the implicit Euler scheme along the pipe from p(0) = p0."""
    if p0 <= 0.0:
        raise NonPositivePressure(f"initial pressure {p0} <= 0")
    if not math.isclose(grid.length, pipe.length, rel_tol=GRID_RTOL):
        raise InvalidGrid(
            f"grid length {grid.length} does not match pipe length {pipe.length}"
        )
    values = np.empty(grid.n_intervals + 1)
    values[0] = p0
    p = p0
    kappa, alpha, beta = pipe_coefficients(level, pipe, gas, slope)
    h = grid.stepsize
    hK, ha, b = h * kappa * abs(q) * q, h * alpha, beta * q * q
    for k in range(1, grid.n_intervals + 1):
        p = _implicit_step(p, hK, ha, b)
        values[k] = p
    return PressureProfile(grid, values, level, q)


def restrict_to_grid(profile: PressureProfile, target: Grid) -> PressureProfile:
    """Exact subsampling of a profile onto a coarser, aligned grid."""
    ratio = target.stepsize / profile.grid.stepsize
    factor = round(ratio)
    if factor < 1 or not math.isclose(ratio, factor, rel_tol=GRID_RTOL):
        raise IncompatibleGrids(
            f"target stepsize {target.stepsize} is not an integer multiple "
            f"of {profile.grid.stepsize}"
        )
    if target.n_intervals * factor != profile.grid.n_intervals:
        raise IncompatibleGrids("target gridpoints do not align with the profile")
    return PressureProfile(
        target, profile.values[::factor].copy(), profile.level, profile.flow
    )

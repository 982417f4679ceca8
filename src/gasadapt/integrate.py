"""Implicit-Euler integration of the discretized pipe models.

Each step is the largest root of a polynomial in the next gridpoint
pressure, taken in closed form: a quadratic at levels 2 and 3, a cubic in
its trigonometric form at level 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DrainedPipe,
    InvalidGrid,
    NonPositivePressure,
    SonicFlow,
)
from .models import SONIC_GUARD, ModelLevel, pipe_coefficients
from .network import GasParameters, Pipe

GRID_RTOL = 1e-9


@dataclass(frozen=True)
class Grid:
    stepsize: float  # m
    n_intervals: int

    def __post_init__(self):
        if self.n_intervals <= 0:
            raise InvalidGrid(f"n_intervals {self.n_intervals} must be positive")
        if not 0.0 < self.stepsize < math.inf:
            raise InvalidGrid(f"stepsize {self.stepsize} must be positive and finite")

    @property
    def length(self) -> float:
        return self.stepsize * self.n_intervals

    def positions(self) -> np.ndarray:
        return np.arange(self.n_intervals + 1) * self.stepsize


def interval_count(pipe: Pipe, h: float) -> int:
    """L/h for the pipe at a positive and finite stepsize h; it must be a
    multiple of 4 so that the 2h and 4h subgrids of the error estimators
    exist."""
    if not 0.0 < h < math.inf:
        raise InvalidGrid(f"pipe {pipe.id}: stepsize {h} must be positive and finite")
    n = round(pipe.length / h)
    if n % 4 != 0 or not math.isclose(n * h, pipe.length, rel_tol=GRID_RTOL):
        raise InvalidGrid(
            f"pipe {pipe.id}: L/h = {pipe.length / h} is not a multiple of 4"
        )
    return n


def integrate(
    level: ModelLevel,
    pipe: Pipe,
    gas: GasParameters,
    p0: float,
    q: float,
    grid: Grid,
    slope: float = 0.0,
) -> np.ndarray:
    """The gridpoint pressures [Pa] marched by implicit Euler from p(0) = p0.

    Each step's p is the largest root of a p^3 - p_prev p^2 + (hK - b) p
    + b p_prev = p^2 (p - p_prev - h rhs(p)), a = 1 + h alpha, hK = h K and
    b = beta q^2; at b = 0 that of a p^2 - p_prev p + hK. For b > 0 it is
    s + 2 r cos(theta / 3), s = p_prev / (3a), r^2 = s^2 - e,
    e = (hK - b) / (3a), and exists iff r^2 > 0 and (1 - cos(theta)) / 2 =
    sin^2(theta / 2) = ((r - s) (r^2 + r s + s^2) + s g / 2) / (2 r^3) <= 1,
    g = 3e + 3b; below 0 it is rounding, as the smallest root is negative.
    p = p_prev + 2 (r - s) - 4 r sin^2(theta / 6) - p_prev (a - 1) / a with
    r - s = -e / (r + s): away from the sonic limit no term cancels and p is
    rounded once."""
    if p0 <= 0.0:
        raise NonPositivePressure(f"initial pressure {p0} <= 0")
    if not math.isclose(grid.length, pipe.length, rel_tol=GRID_RTOL):
        raise InvalidGrid(
            f"grid length {grid.length} does not match pipe length {pipe.length}"
        )
    kappa, alpha, beta = pipe_coefficients(level, pipe, gas, slope)
    h = grid.stepsize
    hK, a, b = h * kappa * abs(q) * q, 1.0 + h * alpha, beta * q * q
    # local names: these loops run once per gridpoint
    sqrt, asin, sin = math.sqrt, math.asin, math.sin
    p, values = p0, [p0]
    append = values.append
    if b == 0.0:
        four_a_hK, two_a = 4.0 * a * hK, 2.0 * a
        for _ in range(grid.n_intervals):
            disc = p * p - four_a_hK
            if disc < 0.0:
                raise DrainedPipe(f"implicit step from p={p} has no real root")
            p = (p + sqrt(disc)) / two_a
            append(p)
    else:
        three_a, e = 3.0 * a, (hK - b) / (3.0 * a)
        half_g, lift = (3.0 * e + 3.0 * b) / 2.0, (a - 1.0) / a
        # 1 - b / p^2 <= SONIC_GUARD, without a division per step
        sonic = b / (1.0 - SONIC_GUARD)
        for _ in range(grid.n_intervals):
            s = p / three_a
            s2 = s * s
            r2 = s2 - e
            if r2 <= 0.0:
                raise SonicFlow(f"implicit step from p={p} has no subsonic root")
            r = sqrt(r2)
            r_minus_s = -e / (r + s)
            sin2_half = (r_minus_s * (r2 + r * s + s2) + s * half_g) / (2.0 * r2 * r)
            if sin2_half > 1.0:
                raise SonicFlow(f"implicit step from p={p} has no subsonic root")
            sin_sixth = sin(asin(sqrt(sin2_half)) / 3.0) if sin2_half > 0.0 else 0.0
            p += 2.0 * r_minus_s - 4.0 * r * sin_sixth * sin_sixth - p * lift
            if p * p <= sonic:
                raise SonicFlow(f"implicit step from p={values[-1]} is sonic")
            append(p)
    return np.array(values)


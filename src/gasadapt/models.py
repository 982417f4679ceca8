"""Continuous pipe model hierarchy and closed-form solutions.

Level 1 is the full stationary momentum balance (friction, gravity, ram
pressure), level 2 drops the ram-pressure factor, level 3 additionally
drops gravity. `pipe_coefficients` states each level's momentum balance
once; the integrator and the NLP discretize it. Closed forms exist for
levels 2 and 3 and serve as test oracles for the integrator and the error
estimators.
"""

from __future__ import annotations

import enum
import math

from .errors import DrainedPipe, NonPositivePressure, UnsupportedModel
from .network import GasParameters, Pipe

SONIC_GUARD = 1e-9


class ModelLevel(enum.IntEnum):
    FULL = 1  # friction + gravity + ram pressure
    GRAVITY = 2  # friction + gravity
    FRICTION = 3  # friction only

    @classmethod
    def of(cls, value) -> "ModelLevel":
        return cls(value)


def _sound_speed_squared(gas: GasParameters) -> float:
    return gas.specific_gas_constant * gas.temperature * gas.compressibility


def sound_speed(gas: GasParameters) -> float:
    """Isothermal sound speed c = sqrt(R_s * T * z)."""
    return math.sqrt(_sound_speed_squared(gas))


def pipe_coefficients(
    level: ModelLevel, pipe: Pipe, gas: GasParameters, slope: float = 0.0
) -> tuple:
    """(kappa, alpha, beta) of the level-l momentum balance

        dp/dx = -(kappa |q| q / p + alpha p) / (1 - beta q^2 / p^2):

    kappa is the friction factor per |q| q, alpha the gravity factor (0 at
    level 3) and beta the ram-pressure factor per q^2 (0 below level 1).
    The integrator, the NLP and the closed forms all read them here.
    """
    # in one pass, without the enum call of ModelLevel.of: the integrator
    # calls this once per march
    if level not in (1, 2, 3):
        raise ValueError(f"{level} is not a valid ModelLevel")
    c2 = _sound_speed_squared(gas)
    area2 = pipe.cross_area**2
    kappa = pipe.friction * c2 / (2.0 * area2 * pipe.diameter)
    alpha = 0.0 if level == ModelLevel.FRICTION else gas.gravity * slope / c2
    beta = c2 / area2 if level == ModelLevel.FULL else 0.0
    return kappa, alpha, beta


def analytic_pressure(
    level: ModelLevel,
    pipe: Pipe,
    gas: GasParameters,
    p0: float,
    q: float,
    x: float,
    slope: float = 0.0,
) -> float:
    """Exact pressure of models 2/3 at position x, starting from p0 at x=0.

    With K = kappa |q| q, level 3: p(x)^2 = p0^2 - 2 K x.
    Level 2: (p^2)' + 2 alpha p^2 = -2K, a linear ODE in p^2.
    """
    if level == ModelLevel.FULL:
        raise UnsupportedModel("no closed form for the full momentum model")
    if p0 <= 0.0:
        raise NonPositivePressure(f"initial pressure {p0} <= 0")
    kappa, alpha, _ = pipe_coefficients(level, pipe, gas, slope)
    K = kappa * abs(q) * q
    if alpha == 0.0:
        p_squared = p0 * p0 - 2.0 * K * x
    else:
        p_squared = (p0 * p0 + K / alpha) * math.exp(-2.0 * alpha * x) - K / alpha
    if p_squared <= 0.0:
        raise DrainedPipe(f"pressure squared {p_squared} <= 0 at x={x}")
    return math.sqrt(p_squared)

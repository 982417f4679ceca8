"""Continuous pipe model hierarchy and closed-form solutions.

Level 1 is the full stationary momentum balance (friction, gravity, ram
pressure), level 2 drops the ram-pressure factor, level 3 additionally
drops gravity. Closed forms exist for levels 2 and 3 and serve as test
oracles for the integrator and the error estimators.
"""

from __future__ import annotations

import enum
import math

from .errors import DrainedPipe, NonPositivePressure, SonicFlow, UnsupportedModel
from .network import GasParameters, Pipe

SONIC_GUARD = 1e-9


class ModelLevel(enum.IntEnum):
    FULL = 1  # friction + gravity + ram pressure
    GRAVITY = 2  # friction + gravity
    FRICTION = 3  # friction only

    @classmethod
    def of(cls, value) -> "ModelLevel":
        return cls(int(value))


def _sound_speed_squared(gas: GasParameters) -> float:
    return gas.specific_gas_constant * gas.temperature * gas.compressibility


def sound_speed(gas: GasParameters) -> float:
    """Isothermal sound speed c = sqrt(R_s * T * z)."""
    return math.sqrt(_sound_speed_squared(gas))


def friction_coefficient(pipe: Pipe, gas: GasParameters, q: float) -> float:
    """K = lambda c^2 |q| q / (2 A^2 D); signed so reverse flow gains pressure."""
    c2 = _sound_speed_squared(gas)
    return pipe.friction * c2 * abs(q) * q / (2.0 * pipe.cross_area**2 * pipe.diameter)


def gravity_coefficient(pipe: Pipe, gas: GasParameters, slope: float) -> float:
    """alpha = g s / c^2 in the linear-in-p gravity term."""
    return gas.gravity * slope / _sound_speed_squared(gas)


def pipe_coefficients(
    level: ModelLevel, pipe: Pipe, gas: GasParameters, slope: float = 0.0
) -> tuple:
    """(kappa, alpha, beta) of the level-l momentum balance

        dp/dx = -(kappa |q| q / p + alpha p) / (1 - beta q^2 / p^2):

    kappa is the friction factor per |q| q, alpha the gravity factor (0 at
    level 3) and beta the ram-pressure factor per q^2 (0 below level 1).
    The integrator and the NLP both build their discrete relation from it.
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


def rhs(
    level: ModelLevel,
    p: float,
    q: float,
    pipe: Pipe,
    gas: GasParameters,
    slope: float = 0.0,
) -> float:
    """dp/dx of the given model level at pressure p and constant mass flow q."""
    if p <= 0.0:
        raise NonPositivePressure(f"pressure {p} <= 0")
    kappa, alpha, beta = pipe_coefficients(level, pipe, gas, slope)
    dpdx = -kappa * abs(q) * q / p - alpha * p
    if level != ModelLevel.FULL:
        return dpdx
    ram = 1.0 - beta * q * q / (p * p)
    if abs(ram) < SONIC_GUARD:
        raise SonicFlow(f"ram factor {ram} at p={p}, q={q}")
    return dpdx / ram


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

    Level 3: p(x)^2 = p0^2 - 2 K x.
    Level 2: (p^2)' + 2 alpha p^2 = -2K, a linear ODE in p^2.
    """
    if level == ModelLevel.FULL:
        raise UnsupportedModel("no closed form for the full momentum model")
    if p0 <= 0.0:
        raise NonPositivePressure(f"initial pressure {p0} <= 0")
    K = friction_coefficient(pipe, gas, q)
    alpha = gravity_coefficient(pipe, gas, slope)
    if level == ModelLevel.FRICTION or alpha == 0.0:
        p_squared = p0 * p0 - 2.0 * K * x
    else:
        p_squared = (p0 * p0 + K / alpha) * math.exp(-2.0 * alpha * x) - K / alpha
    if p_squared <= 0.0:
        raise DrainedPipe(f"pressure squared {p_squared} <= 0 at x={x}")
    return math.sqrt(p_squared)

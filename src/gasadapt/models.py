"""Continuous pipe model hierarchy.

Level 1 is the full stationary momentum balance (friction, gravity, ram
pressure), level 2 drops the ram-pressure factor, level 3 additionally
drops gravity. `pipe_coefficients` states each level's momentum balance
once; the integrator and the NLP discretize it. The closed forms of levels
2 and 3 are test oracles for the integrator and the error estimators, and
live with the other reference formulas in `tests/oracles.py`.
"""

from __future__ import annotations

import enum

from .network import GasParameters, Pipe

SONIC_GUARD = 1e-9


class ModelLevel(enum.IntEnum):
    FULL = 1  # friction + gravity + ram pressure
    GRAVITY = 2  # friction + gravity
    FRICTION = 3  # friction only

    @classmethod
    def of(cls, value) -> "ModelLevel":
        return cls(value)


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
    c2 = gas.specific_gas_constant * gas.temperature * gas.compressibility
    area2 = pipe.cross_area**2
    kappa = pipe.friction * c2 / (2.0 * area2 * pipe.diameter)
    alpha = 0.0 if level == ModelLevel.FRICTION else gas.gravity * slope / c2
    beta = c2 / area2 if level == ModelLevel.FULL else 0.0
    return kappa, alpha, beta


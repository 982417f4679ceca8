"""Pipe model hierarchy: rhs formulas, closed forms, and guards."""

import math

import pytest
from hypothesis import given, strategies as st

from gasadapt.errors import (
    DrainedPipe,
    NonPositivePressure,
    SonicFlow,
    UnsupportedModel,
)
from gasadapt.models import (
    ModelLevel,
    analytic_pressure,
    pipe_coefficients,
    rhs,
    sound_speed,
)
from gasadapt.network import GasParameters, Pipe

# frozen oracle values, recomputed from the closed forms with independent
# code (see docstrings); test pipe: L=10 km, D=0.6 m, lambda=0.01,
# p0=60e5 Pa, q=100 kg/s, default gas parameters
C_SOUND = 363.4154469749463
K_TEST = 137670457.54678184
LEVEL3_ENDPOINT = 5765985.67888131
LEVEL2_ENDPOINT_S002 = 5677460.582447306  # slope 0.02
GRAVITY_ONLY_ENDPOINT_S002 = 5911554.777216106  # q = 0: p0 * exp(-alpha L)


def test_sound_speed_closed_form(gas):
    assert sound_speed(gas) == pytest.approx(C_SOUND, rel=1e-12)


def _hand_coefficients(pipe, gas, slope):
    """(kappa, alpha, beta) of level 1 written out by hand: with A = pi D^2 / 4,
    kappa |q| q = lambda c^2 |q| q / (2 A^2 D), alpha = g s / c^2 and
    beta = c^2 / A^2."""
    c2 = C_SOUND**2
    area = math.pi * pipe.diameter**2 / 4.0
    return (
        pipe.friction * c2 / (2.0 * area**2 * pipe.diameter),
        gas.gravity * slope / c2,
        c2 / area**2,
    )


def test_friction_coefficient_value(test_pipe, gas):
    kappa, _, _ = _hand_coefficients(test_pipe, gas, 0.0)
    for level in ModelLevel:
        got, _, _ = pipe_coefficients(level, test_pipe, gas)
        assert got == pytest.approx(kappa, rel=1e-12)
        assert got * 100.0 * 100.0 == pytest.approx(K_TEST, rel=1e-12)


def test_friction_coefficient_sign_reverses_with_flow(test_pipe, gas):
    # the friction term kappa |q| q / p of dp/dx changes sign with the flow
    kappa, _, _ = _hand_coefficients(test_pipe, gas, 0.0)
    for q in (100.0, -100.0):
        got = rhs(ModelLevel.FRICTION, 50e5, q, test_pipe, gas)
        assert got == pytest.approx(-kappa * abs(q) * q / 50e5, rel=1e-12)


@pytest.mark.parametrize(
    "level, has_gravity, has_ram",
    [
        (ModelLevel.FULL, True, True),
        (ModelLevel.GRAVITY, True, False),
        (ModelLevel.FRICTION, False, False),
    ],
)
def test_pipe_coefficients_gravity_and_ram_by_level(
    level, has_gravity, has_ram, test_pipe, gas
):
    # alpha = g s / c^2 at levels 1-2 and 0 at level 3; beta = c^2 / A^2 at
    # level 1 and 0 below
    _, alpha, beta = _hand_coefficients(test_pipe, gas, 0.02)
    got = pipe_coefficients(level, test_pipe, gas, slope=0.02)
    assert got[1] == pytest.approx(alpha if has_gravity else 0.0, rel=1e-12)
    assert got[2] == pytest.approx(beta if has_ram else 0.0, rel=1e-12)


def test_level3_analytic_endpoint(test_pipe, gas):
    p = analytic_pressure(ModelLevel.FRICTION, test_pipe, gas, 60e5, 100.0, 10000.0)
    assert p == pytest.approx(LEVEL3_ENDPOINT, rel=1e-12)


def test_level2_analytic_endpoint_with_slope(test_pipe, gas):
    p = analytic_pressure(
        ModelLevel.GRAVITY, test_pipe, gas, 60e5, 100.0, 10000.0, slope=0.02
    )
    assert p == pytest.approx(LEVEL2_ENDPOINT_S002, rel=1e-12)


def test_level2_no_flow_is_pure_gravity_head(test_pipe, gas):
    p = analytic_pressure(
        ModelLevel.GRAVITY, test_pipe, gas, 60e5, 0.0, 10000.0, slope=0.02
    )
    assert p == pytest.approx(GRAVITY_ONLY_ENDPOINT_S002, rel=1e-12)


def test_level2_ode_residual_pointwise(test_pipe, gas):
    # d(p^2)/dx + 2 alpha p^2 + 2K = 0, checked by central differences
    K = K_TEST
    _, alpha, _ = _hand_coefficients(test_pipe, gas, 0.02)
    dx = 1e-3
    for i in range(1, 11):
        x = i * 900.0

        def p2(pos):
            return (
                analytic_pressure(
                    ModelLevel.GRAVITY, test_pipe, gas, 60e5, 100.0, pos, slope=0.02
                )
                ** 2
            )

        deriv = (p2(x + dx) - p2(x - dx)) / (2.0 * dx)
        residual = deriv + 2.0 * alpha * p2(x) + 2.0 * K
        assert abs(residual) <= 1e-4 * abs(2.0 * K)


def test_hierarchy_levels_2_and_3_agree_without_slope(test_pipe, gas):
    assert rhs(ModelLevel.GRAVITY, 50e5, 80.0, test_pipe, gas, slope=0.0) == rhs(
        ModelLevel.FRICTION, 50e5, 80.0, test_pipe, gas
    )


def test_zero_flow_zero_slope_gives_zero_rhs(test_pipe, gas):
    for level in ModelLevel:
        assert rhs(level, 50e5, 0.0, test_pipe, gas, slope=0.0) == 0.0


def test_level1_approaches_level2_for_large_area(gas):
    # the ram factor 1 - q^2 c^2 / (A^2 p^2) tends to 1 as A grows
    p, q = 50e5, 80.0
    pipe = Pipe(
        id="w", from_node="a", to_node="b", length=1000.0, diameter=2.0, friction=0.01
    )
    c2 = gas.specific_gas_constant * gas.temperature * gas.compressibility
    bound = q * q * c2 / (pipe.cross_area**2 * p * p)
    r1 = rhs(ModelLevel.FULL, p, q, pipe, gas, slope=0.01)
    r2 = rhs(ModelLevel.GRAVITY, p, q, pipe, gas, slope=0.01)
    assert abs(r1 - r2) <= 1.5 * bound * abs(r2)


def test_rhs_monotone_pressure_drop(test_pipe, gas):
    for level in ModelLevel:
        assert rhs(level, 50e5, 80.0, test_pipe, gas, slope=0.0) < 0.0


def test_sonic_flow_raises(test_pipe, gas):
    c = sound_speed(gas)
    p_sonic = 100.0 * c / test_pipe.cross_area
    with pytest.raises(SonicFlow):
        rhs(ModelLevel.FULL, p_sonic, 100.0, test_pipe, gas)


def test_nonpositive_pressure_raises(test_pipe, gas):
    with pytest.raises(NonPositivePressure):
        rhs(ModelLevel.FRICTION, 0.0, 100.0, test_pipe, gas)
    with pytest.raises(NonPositivePressure):
        analytic_pressure(ModelLevel.FRICTION, test_pipe, gas, -1.0, 100.0, 0.0)


def test_level1_has_no_closed_form(test_pipe, gas):
    with pytest.raises(UnsupportedModel):
        analytic_pressure(ModelLevel.FULL, test_pipe, gas, 60e5, 100.0, 1.0)


def test_drained_pipe_raises(test_pipe, gas):
    with pytest.raises(DrainedPipe):
        analytic_pressure(ModelLevel.FRICTION, test_pipe, gas, 6e5, 100.0, 10000.0)


def test_model_level_of():
    assert ModelLevel.of(1) is ModelLevel.FULL
    assert ModelLevel.of(ModelLevel.FRICTION) is ModelLevel.FRICTION
    with pytest.raises(ValueError):
        ModelLevel.of(4)


def test_analytic_matches_fine_rk4_level3(test_pipe, gas):
    # independent fine fixed-step RK4 on the level-3 rhs
    q, p0 = 100.0, 60e5
    n = 20000
    h = test_pipe.length / n
    p = p0
    for _ in range(n):
        k1 = rhs(ModelLevel.FRICTION, p, q, test_pipe, gas)
        k2 = rhs(ModelLevel.FRICTION, p + 0.5 * h * k1, q, test_pipe, gas)
        k3 = rhs(ModelLevel.FRICTION, p + 0.5 * h * k2, q, test_pipe, gas)
        k4 = rhs(ModelLevel.FRICTION, p + h * k3, q, test_pipe, gas)
        p += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    exact = analytic_pressure(
        ModelLevel.FRICTION, test_pipe, gas, p0, q, test_pipe.length
    )
    assert p == pytest.approx(exact, rel=1e-8)

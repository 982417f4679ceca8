"""Implicit-Euler integrator: convergence order, guards, grid algebra."""

import dataclasses
import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gasadapt import nlp
from gasadapt.errors import DrainedPipe, IncompatibleGrids, InvalidGrid, SonicFlow
from gasadapt.integrate import Grid, integrate, restrict_to_grid
from gasadapt.models import (
    ModelLevel,
    analytic_pressure,
    pipe_coefficients,
    rhs,
    sound_speed,
)
from gasadapt.network import Network, Node, Scenario


def _max_error(level, pipe, gas, p0, q, grid, slope=0.0):
    profile = integrate(level, pipe, gas, p0, q, grid, slope)
    exact = np.array(
        [
            analytic_pressure(level, pipe, gas, p0, q, x, slope)
            for x in grid.positions()
        ]
    )
    return float(np.max(np.abs(profile.values - exact)))


def test_first_order_convergence_level3(test_pipe, gas):
    errors = [
        _max_error(
            ModelLevel.FRICTION, test_pipe, gas, 60e5, 100.0, Grid.for_pipe(10000.0, n)
        )
        for n in (8, 16, 32, 64, 128)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.2


def test_first_order_convergence_level2_with_slope(test_pipe, gas):
    errors = [
        _max_error(
            ModelLevel.GRAVITY,
            test_pipe,
            gas,
            60e5,
            100.0,
            Grid.for_pipe(10000.0, n),
            slope=0.02,
        )
        for n in (8, 16, 32, 64)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.2


def test_determinism(test_pipe, gas):
    grid = Grid.for_pipe(10000.0, 32)
    a = integrate(ModelLevel.FULL, test_pipe, gas, 60e5, 100.0, grid, 0.01)
    b = integrate(ModelLevel.FULL, test_pipe, gas, 60e5, 100.0, grid, 0.01)
    assert np.array_equal(a.values, b.values)


def test_zero_flow_zero_slope_constant_profile(test_pipe, gas):
    grid = Grid.for_pipe(10000.0, 16)
    profile = integrate(ModelLevel.FRICTION, test_pipe, gas, 60e5, 0.0, grid)
    assert np.all(profile.values == 60e5)


def test_downhill_no_flow_pressure_increases(test_pipe, gas):
    # q = 0, slope < 0: pure gravity head, p(x) = p0 exp(-alpha x) with
    # alpha < 0, so pressure rises along the pipe
    grid = Grid.for_pipe(10000.0, 256)
    profile = integrate(ModelLevel.GRAVITY, test_pipe, gas, 60e5, 0.0, grid, -0.02)
    assert np.all(np.diff(profile.values) > 0.0)
    alpha = gas.gravity * -0.02 / sound_speed(gas) ** 2
    exact = 60e5 * math.exp(-alpha * test_pipe.length)
    assert profile.endpoint() == pytest.approx(exact, rel=1e-4)


def test_reverse_flow_gains_pressure(test_pipe, gas):
    grid = Grid.for_pipe(10000.0, 16)
    profile = integrate(ModelLevel.FRICTION, test_pipe, gas, 60e5, -100.0, grid)
    assert np.all(np.diff(profile.values) > 0.0)


def test_monotone_decrease_under_forward_flow(test_pipe, gas):
    grid = Grid.for_pipe(10000.0, 32)
    for level in ModelLevel:
        profile = integrate(level, test_pipe, gas, 60e5, 100.0, grid)
        assert np.all(np.diff(profile.values) < 0.0)


def test_drained_pipe_raises(test_pipe, gas):
    grid = Grid.for_pipe(10000.0, 16)
    for level in (ModelLevel.GRAVITY, ModelLevel.FRICTION):
        with pytest.raises(DrainedPipe):
            integrate(level, test_pipe, gas, 6e5, 100.0, grid)


def test_level1_runs_sonic_where_lower_levels_drain(test_pipe, gas):
    # same inputs as the drained case: the ram-pressure term makes the full
    # model lose its subsonic step root before the pressure runs out
    grid = Grid.for_pipe(10000.0, 16)
    with pytest.raises(SonicFlow):
        integrate(ModelLevel.FULL, test_pipe, gas, 6e5, 100.0, grid)


def test_grid_for_pipe_requires_multiple_of_four():
    with pytest.raises(InvalidGrid):
        Grid.for_pipe(1000.0, 6)
    grid = Grid.for_pipe(1000.0, 8)
    assert grid.stepsize == 125.0


@pytest.mark.parametrize(
    "stepsize, n_intervals",
    [
        (0.0, 4),
        (-125.0, 4),
        (math.nan, 4),  # positions() were all NaN
        (math.inf, 4),
        (-math.inf, 4),
        (125.0, 0),
    ],
)
def test_grid_rejects_a_bad_stepsize(stepsize, n_intervals):
    with pytest.raises(InvalidGrid):
        Grid(stepsize, n_intervals)


def test_grid_positions_and_length():
    grid = Grid(125.0, 8)
    assert grid.length == 1000.0
    assert np.array_equal(grid.positions(), np.arange(9) * 125.0)


def test_grid_length_must_match_pipe(test_pipe, gas):
    with pytest.raises(InvalidGrid):
        integrate(ModelLevel.FRICTION, test_pipe, gas, 60e5, 100.0, Grid(100.0, 8))


def test_restrict_to_grid_exact_subsampling(test_pipe, gas):
    fine = Grid.for_pipe(10000.0, 32)
    coarse = Grid.for_pipe(10000.0, 8)
    profile = integrate(ModelLevel.FRICTION, test_pipe, gas, 60e5, 100.0, fine)
    restricted = restrict_to_grid(profile, coarse)
    assert np.array_equal(restricted.values, profile.values[::4])


def test_restrict_to_grid_misaligned_raises(test_pipe, gas):
    fine = Grid.for_pipe(10000.0, 32)
    profile = integrate(ModelLevel.FRICTION, test_pipe, gas, 60e5, 100.0, fine)
    with pytest.raises(IncompatibleGrids):
        restrict_to_grid(profile, Grid(10000.0 / 12.0, 12))


def test_implicit_euler_step_relation(test_pipe, gas):
    # each gridpoint satisfies p_k - p_{k-1} = h * rhs(p_k) at every level
    grid = Grid.for_pipe(10000.0, 8)
    for level in ModelLevel:
        profile = integrate(level, test_pipe, gas, 60e5, 100.0, grid, 0.01)
        for k in range(1, grid.n_intervals + 1):
            pk, pk1 = profile.values[k], profile.values[k - 1]
            step = grid.stepsize * rhs(level, pk, 100.0, test_pipe, gas, 0.01)
            assert pk - pk1 == pytest.approx(step, abs=1e-9 * pk)


@pytest.mark.parametrize("q", [50.0, -50.0])
@pytest.mark.parametrize("level", list(ModelLevel))
def test_profile_satisfies_nlp_pipe_relation(test_pipe, gas, level, q):
    # the integrator and the NLP discretize the same relation: an integrated
    # profile is a zero of the NLP's gridpoint constraints to rounding
    pipe = dataclasses.replace(test_pipe, slope=0.01)
    net = Network(
        [Node("a", "entry", 1e5, 100e5), Node("b", "exit", 1e5, 100e5)], [pipe]
    )
    grid = Grid.for_pipe(pipe.length, 32)
    inst = nlp.assemble(net, Scenario(), gas, {pipe.id: (level, grid.stepsize)})
    profile = integrate(level, pipe, gas, 60e5, q, grid, 0.01)
    x = np.zeros(inst.n_vars)
    pressure_idx = [inst.node_idx["a"], *inst.interior_idx[pipe.id], inst.node_idx["b"]]
    x[pressure_idx] = profile.values / nlp.PRESSURE_SCALE
    x[inst.flow_idx[pipe.id]] = q
    pipe_rows = inst.constraints(x)[inst.n_lin :]
    assert len(pipe_rows) == grid.n_intervals
    assert np.max(np.abs(pipe_rows)) <= 1e-12  # bar


def _step_cubic(pipe, gas, q, h, slope):
    """(a, hK, b) of the level-1 step cubic
    a p^3 - p_prev p^2 + (hK - b) p + b p_prev, as the integrator forms them."""
    kappa, alpha, beta = pipe_coefficients(ModelLevel.FULL, pipe, gas, slope)
    return 1.0 + h * alpha, h * kappa * abs(q) * q, beta * q * q


def _largest_root(a, hK, b, p_prev, start):
    """The root of the step cubic that Newton reaches from `start`, in the
    current decimal context, checked to be the largest one: positive, with
    the cubic rising through it."""
    root = start
    for _ in range(3):
        f = ((a * root - p_prev) * root + hK - b) * root + b * p_prev
        root -= f / ((3 * a * root - 2 * p_prev) * root + hK - b)
    assert root > 0 and (3 * a * root - 2 * p_prev) * root + hK - b > 0
    return root


@pytest.mark.parametrize("n", [16, 4096])
@pytest.mark.parametrize("slope", [0.02, -0.02], ids=["uphill", "downhill"])
@pytest.mark.parametrize("q", [150.0, -150.0, 5.0, 1e-3])
def test_closed_form_step_matches_a_50_digit_root(test_pipe, gas, q, slope, n):
    grid = Grid.for_pipe(test_pipe.length, n)
    values = integrate(ModelLevel.FULL, test_pipe, gas, 60e5, q, grid, slope).values
    a, hK, b = map(Decimal, _step_cubic(test_pipe, gas, q, grid.stepsize, slope))
    with localcontext() as ctx:
        ctx.prec = 50
        exact = Decimal(values[0])  # the 50-digit march from p0
        for p_prev, p in zip(values[:-1], values[1:]):
            P, x = Decimal(p_prev), Decimal(p)
            # backward error: p is a root of the cubic with its coefficients
            # perturbed by at most 2 eps relative
            f = ((a * x - P) * x + hK - b) * x + b * P
            terms = ((a * x + P) * x + abs(hK - b)) * x + b * P
            assert abs(f) <= 2 * Decimal(np.finfo(float).eps) * terms
            assert abs(x - _largest_root(a, hK, b, P, x)) <= Decimal(math.ulp(p))
            # the steps are rounded without bias: a bias of a fraction of an
            # ulp per step would drift by about 1e-13 over 4096 steps
            exact = _largest_root(a, hK, b, exact, x)
            assert abs(x - exact) <= Decimal(2e-14) * exact


@pytest.mark.parametrize("slope", [0.0, 0.02])
def test_sonic_flow_raised_just_past_the_sonic_limit(test_pipe, gas, slope):
    # one 10 km step from 60 bar: past the flow q* where the cubic's two
    # largest roots meet (its discriminant changes sign), no subsonic root
    grid = Grid(test_pipe.length, 1)

    def discriminant(q):
        a, hK, b = map(Decimal, _step_cubic(test_pipe, gas, q, grid.stepsize, slope))
        c3, c2, c1, c0 = a, Decimal(-60e5), hK - b, b * Decimal(60e5)
        return (
            18 * c3 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2
            - 4 * c3 * c1**3 - 27 * c3**2 * c0**2
        )

    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = 1.0, 1e4
        assert discriminant(lo) > 0 > discriminant(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if discriminant(mid) > 0 else (lo, mid)
    step = functools.partial(integrate, ModelLevel.FULL, test_pipe, gas, 60e5)
    assert step(lo * (1.0 - 1e-6), grid, slope).endpoint() > 0.0
    with pytest.raises(SonicFlow):
        step(lo * (1.0 + 1e-6), grid, slope)
    with pytest.raises(SonicFlow):  # far past it the cubic is monotone
        step(1e4, grid, slope)

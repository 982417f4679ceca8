"""Implicit-Euler integrator: convergence order, guards, grid algebra."""

import dataclasses
import math

import numpy as np
import pytest

from gasadapt import nlp
from gasadapt.errors import DrainedPipe, IncompatibleGrids, InvalidGrid, SonicFlow
from gasadapt.integrate import Grid, integrate, restrict_to_grid
from gasadapt.models import ModelLevel, analytic_pressure, gravity_coefficient, rhs
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
    alpha = gravity_coefficient(test_pipe, gas, -0.02)
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


def test_grid_positions_and_length():
    grid = Grid(125.0, 8)
    assert grid.length == 1000.0
    assert np.array_equal(grid.positions(), np.arange(9) * 125.0)


def test_grid_coarsened():
    grid = Grid(125.0, 8)
    coarse = grid.coarsened(2)
    assert coarse.stepsize == 250.0 and coarse.n_intervals == 4
    with pytest.raises(InvalidGrid):
        grid.coarsened(3)


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
    pipe_rows = inst.constraints(x)[inst.linear_A.shape[0] :]
    assert len(pipe_rows) == grid.n_intervals
    assert np.max(np.abs(pipe_rows)) <= 1e-12  # bar

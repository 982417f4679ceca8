"""Discretization and model error estimators."""

import math

import numpy as np
import pytest

from gasadapt.errors import InvalidGrid
from gasadapt.estimators import estimate_with_alternatives
from gasadapt.integrate import Grid, integrate
from gasadapt.models import ModelLevel

from oracles import sound_speed

P0, Q, H = 60e5, 100.0, 10000.0 / 16


def test_eta_d_equals_brute_force_recompute(test_pipe, gas):
    estimate, _ = estimate_with_alternatives(test_pipe, gas, P0, Q, ModelLevel.FULL, H)
    p_2h = integrate(ModelLevel.FULL, test_pipe, gas, P0, Q, Grid(2 * H, 8))
    p_4h = integrate(ModelLevel.FULL, test_pipe, gas, P0, Q, Grid(4 * H, 4))
    brute = np.max(np.abs(p_2h[::2] - p_4h))
    assert estimate.eta_d == pytest.approx(float(brute), rel=0, abs=0)


def test_eta_d_evaluation_grid_has_quarter_plus_one_points(test_pipe, gas):
    # the norm is over exactly n/4 + 1 points; a profile mismatch there would
    # change the value, so check via a grid the wrong size
    with pytest.raises(InvalidGrid):
        estimate_with_alternatives(
            test_pipe, gas, P0, Q, ModelLevel.FULL, 10000.0 / 6
        )


def test_eta_m_zero_at_level_one(test_pipe, gas):
    estimate, _ = estimate_with_alternatives(test_pipe, gas, P0, Q, ModelLevel.FULL, H)
    assert estimate.eta_m == 0.0


def test_eta_d_halves_under_refinement(test_pipe, gas):
    coarse, _ = estimate_with_alternatives(test_pipe, gas, P0, Q, ModelLevel.FULL, H)
    fine, _ = estimate_with_alternatives(test_pipe, gas, P0, Q, ModelLevel.FULL, H / 2)
    assert 1.8 <= coarse.eta_d / fine.eta_d <= 2.2


def test_model_error_stable_under_grid_change(test_pipe, gas):
    # when eta_d << eta_m (factor >= 100), one refinement moves eta_m by <= 5%
    slope = 0.03
    h = 10000.0 / 64
    eta_d = estimate_with_alternatives(
        test_pipe, gas, P0, Q, ModelLevel.FULL, h, slope
    )[0].eta_d
    eta_m = estimate_with_alternatives(
        test_pipe, gas, P0, Q, ModelLevel.FRICTION, h, slope
    )[0].eta_m
    assert eta_m >= 100.0 * eta_d
    eta_m_fine = estimate_with_alternatives(
        test_pipe, gas, P0, Q, ModelLevel.FRICTION, h / 2, slope
    )[0].eta_m
    assert abs(eta_m_fine - eta_m) <= 0.05 * eta_m


def test_estimator_locality_pure_recompute(test_pipe, gas):
    args = (test_pipe, gas, P0, Q, ModelLevel.GRAVITY, H, 0.01)
    first = estimate_with_alternatives(*args)[0]
    second = estimate_with_alternatives(*args)[0]
    assert first == second


def test_eta_m_gravity_head_for_level3_no_flow(test_pipe, gas):
    # q = 0 at level 3 gives a constant profile while the reference follows
    # the pure-gravity solution: eta_m ~ |p0 (exp(-alpha L) - 1)|
    slope = 0.02
    alpha = gas.gravity * slope / sound_speed(gas) ** 2
    expected = abs(P0 * (math.exp(-alpha * test_pipe.length) - 1.0))
    eta_m = estimate_with_alternatives(
        test_pipe, gas, P0, 0.0, ModelLevel.FRICTION, 10000.0 / 64, slope
    )[0].eta_m
    assert eta_m == pytest.approx(expected, rel=0.05)


def test_eta_m_level2_below_ram_term_bound(test_pipe, gas):
    # with s = 0 and small q, levels 1 and 2 differ only through the ram
    # factor; the deviation is bounded by its relative size times the drop
    # a fine grid keeps the 2h-versus-h discretization gap inside eta_m well
    # below the ram-term magnitude itself
    q = 20.0
    h = 10000.0 / 1024
    profile = integrate(
        ModelLevel.GRAVITY, test_pipe, gas, P0, q, Grid(10000.0 / 1024, 1024)
    )
    p_min = float(np.min(profile))
    drop = P0 - p_min
    c = sound_speed(gas)
    bound = q * q * c * c / (test_pipe.cross_area**2 * p_min**2) * drop
    eta_m = estimate_with_alternatives(
        test_pipe, gas, P0, q, ModelLevel.GRAVITY, h
    )[0].eta_m
    assert eta_m <= 1.5 * bound


def test_total_error_consistency(test_pipe, gas):
    def estimate(level):
        return estimate_with_alternatives(test_pipe, gas, P0, Q, level, H, 0.01)[0]

    est = estimate(ModelLevel.GRAVITY)
    assert est.eta == est.eta_d + est.eta_m
    assert est.eta_d == pytest.approx(estimate(ModelLevel.FULL).eta_d)
    assert est.eta_m == pytest.approx(estimate(ModelLevel.GRAVITY).eta_m)


def test_estimate_with_alternatives_shares_reference(test_pipe, gas):
    estimate, by_level = estimate_with_alternatives(
        test_pipe,
        gas,
        P0,
        Q,
        ModelLevel.FRICTION,
        H,
        0.01,
        extra_levels=(ModelLevel.GRAVITY,),
    )
    assert estimate.level is ModelLevel.FRICTION
    assert set(by_level) == {ModelLevel.FRICTION, ModelLevel.GRAVITY}
    assert by_level[ModelLevel.FRICTION] == estimate.eta_m
    # the one-level-better model cannot have a larger model error here
    assert by_level[ModelLevel.GRAVITY] <= by_level[ModelLevel.FRICTION]


def test_stepsize_must_divide_pipe_into_multiple_of_four(test_pipe, gas):
    with pytest.raises(InvalidGrid):
        estimate_with_alternatives(
            test_pipe, gas, P0, Q, ModelLevel.FRICTION, 10000.0 / 10
        )

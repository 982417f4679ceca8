"""Reference formulas that the tests check the package against.

No program path evaluates these: the integrator and the NLP discretize the
momentum balance themselves, the closed forms of levels 2 and 3 exist only
to check those discretizations, the NLP writes mass balance as its linear
rows, and the control loop compares its average estimate with eps inline.
"""

import math

from gasadapt.errors import DrainedPipe, NonPositivePressure, SonicFlow
from gasadapt.models import SONIC_GUARD, ModelLevel, pipe_coefficients


def sound_speed(gas):
    """Isothermal sound speed c = sqrt(R_s * T * z)."""
    return math.sqrt(gas.specific_gas_constant * gas.temperature * gas.compressibility)


def rhs(level, p, q, pipe, gas, slope=0.0):
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


def analytic_pressure(level, pipe, gas, p0, q, x, slope=0.0):
    """Exact pressure of models 2/3 at position x, starting from p0 at x=0.

    With K = kappa |q| q, level 3: p(x)^2 = p0^2 - 2 K x.
    Level 2: (p^2)' + 2 alpha p^2 = -2K, a linear ODE in p^2.
    """
    if level == ModelLevel.FULL:
        raise ValueError("no closed form for the full momentum model")
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


def mass_balance_residual(net, scn, flows):
    """Per-node defect of inflow minus outflow minus boundary flow."""
    residual = {node_id: -scn.flow_at(node_id) for node_id in net.nodes}
    for arc in net.arcs.values():
        residual[arc.to_node] += flows[arc.id]
        residual[arc.from_node] -= flows[arc.id]
    return residual


def is_eps_feasible(estimates, eps):
    """(sum eta_d + sum eta_m) / number of pipes <= eps."""
    estimates = list(estimates)
    sum_d = sum(e.eta_d for e in estimates)
    sum_m = sum(e.eta_m for e in estimates)
    return (sum_d + sum_m) / len(estimates) <= eps

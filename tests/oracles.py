"""Reference formulas that the tests check the package against.

No program path evaluates these: the integrator and the NLP discretize the
momentum balance themselves, the NLP writes mass balance as its linear
rows, and the control loop compares its average estimate with eps inline.
"""

from gasadapt.errors import NonPositivePressure, SonicFlow
from gasadapt.models import SONIC_GUARD, ModelLevel, pipe_coefficients


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

"""The paper's two claims on the final state of adaptive runs.

Claim 1: the run ends with a true error of at most eps. The reference is
criterion 3's: level 1 marched at h/64 from the NLP's from-node pressure,
with the NLP's flow and the pipe's slope, compared with the NLP's pressure
profile on the 4h grid.

Claim 2: the loop terminates, also under parameters that break the
finite-termination inequalities of `validate_parameters`.

Run with -s to see both tables.
"""

import numpy as np

from gasadapt.controller import AdaptiveConfig, run, validate_parameters
from gasadapt.fixtures import chain5, tree12
from gasadapt.integrate import Grid, integrate, interval_count
from gasadapt.models import ModelLevel
from gasadapt.network import slope_of

from oracles import is_eps_feasible

CLAIM_EPS = 10.0  # Pa


def true_errors(net, gas, sol):
    """Per pipe, in id order: the max difference on the 4h grid between the
    NLP's pressure profile and level 1 marched at h/64 from the NLP's
    from-node pressure with the NLP's flow and the pipe's slope."""
    errors = {}
    for pid in sorted(net.pipes):
        pipe, (_, h) = net.pipes[pid], sol.pipe_states[pid]
        n = interval_count(pipe, h)
        p_from, p_to = (sol.node_pressures[v] for v in (pipe.from_node, pipe.to_node))
        profile = np.concatenate([[p_from], sol.interior_pressures[pid], [p_to]])
        fine = Grid(h / 64, 64 * n)
        reference = integrate(
            ModelLevel.FULL, pipe, gas, p_from, sol.arc_flows[pid], fine,
            slope_of(pipe, net),
        )
        errors[pid] = float(np.abs(reference[::256] - profile[::4]).max())
    return errors


def test_claim_1_final_true_error_within_eps(grid_mesh):
    networks = {"chain-5": chain5(), "tree-12": tree12(), "7x8 mesh": grid_mesh(7, 8)}
    rows = []
    for name, (net, gas, scn) in networks.items():
        sol, state = run(net, scn, gas, AdaptiveConfig(eps=CLAIM_EPS))
        true = true_errors(net, gas, sol)
        eta = {pid: e.eta for pid, e in state.estimates.items()}
        ratios = [eta[pid] / true[pid] for pid in true]
        rows.append((
            name, len(state.trace), np.mean(list(eta.values())),
            np.mean(list(true.values())), max(true.values()), min(ratios), max(ratios),
        ))

    print(f"\nclaim 1 at eps = {CLAIM_EPS} Pa: true error against level 1 at h/64")
    print("run       solves  mean eta  mean true  max true  eta/true per pipe")
    for name, solves, mean_eta, mean_true, max_true, lo, hi in rows:
        print(f"{name:9} {solves:6d}  {mean_eta:8.3f}  {mean_true:9.3f}  "
              f"{max_true:8.3f}  {lo:.3g}-{hi:.3g}")
    for name, _, _, mean_true, _, lo, _ in rows:
        assert mean_true <= CLAIM_EPS, name
        assert lo >= 0.8, name


# parameter sets on either side of the finite-termination inequalities
CONFIGS = {
    "defaults": {},
    "mu=1": {"mu": 1},
    "mu=2": {"mu": 2},
    "mu=8": {"mu": 8},
    "theta=0.5": {"theta_d": 0.5, "theta_m": 0.5},
    "eps=1": {"eps": 1.0},
}
# per network, in CONFIGS order: the solves of each run, and the inequality
# warnings of `validate_parameters`; 7 of the 12 runs break an inequality
SOLVES = {"chain-5": (13, 35, 16, 12, 16, 18), "tree-12": (14, 39, 17, 13, 21, 20)}
WARNINGS = {"chain-5": (0, 1, 1, 0, 0, 0), "tree-12": (1, 1, 1, 0, 1, 1)}


def test_claim_2_termination_where_the_inequalities_fail():
    networks = {"chain-5": chain5(), "tree-12": tree12()}
    solves, warnings = {}, {}
    for name, (net, gas, scn) in networks.items():
        solves[name], warnings[name] = [], []
        for fields in CONFIGS.values():
            config = AdaptiveConfig(**fields)
            # an IterationLimit past max_outer_iterations would raise here
            _, state = run(net, scn, gas, config)
            assert is_eps_feasible(state.estimates.values(), config.eps)
            solves[name].append(len(state.trace))
            warnings[name].append(len(validate_parameters(config, len(net.pipes))))

    print("\nclaim 2: solves (inequality warnings) per config")
    print(f"{'run':9}" + "".join(f"{label:>11}" for label in CONFIGS))
    for name in networks:
        cells = [f"{s} ({w})" for s, w in zip(solves[name], warnings[name])]
        print(f"{name:9}" + "".join(f"{cell:>11}" for cell in cells))
    assert {name: tuple(counts) for name, counts in solves.items()} == SOLVES
    assert {name: tuple(counts) for name, counts in warnings.items()} == WARNINGS

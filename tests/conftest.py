import random

import pytest

from gasadapt.fileio import network_from_dict, scenario_from_dict
from gasadapt.network import GasParameters, Pipe


@pytest.fixture
def gas():
    return GasParameters()


@pytest.fixture
def test_pipe():
    # the canonical smooth subsonic test pipe used throughout the suite
    return Pipe(
        id="t",
        from_node="a",
        to_node="b",
        length=10000.0,
        diameter=0.6,
        friction=0.01,
    )


def _grid_mesh(rows, cols):
    """(Network, GasParameters, Scenario) of a seeded rows x cols grid mesh.

    Pipes run to the right and lower neighbours, in row-major order, the
    right one first. `random.Random(3)` draws the node elevations, U(0, 150)
    m in row-major order, then per pipe the length from {4, ..., 20} km, the
    diameter U(0.45, 0.7) m and the friction U(0.010, 0.013). The entry,
    fixed at 55 bar, feeds node n0_0 through one compressor (lift <= 35 bar,
    cost 1 per bar) with 150 kg/s; the two bottom corners take 70 (left)
    and 80 kg/s (right) at >= 50 bar. Other nodes are bounded at 1-100 bar.
    At 5 x 6, five of its pipes carry reversed flow at the optimum."""
    rng = random.Random(3)

    def node_id(r, c):
        return f"n{r}_{c}"

    exits = {node_id(rows - 1, 0): 70.0, node_id(rows - 1, cols - 1): 80.0}
    nodes = [{"id": "entry", "kind": "entry", "pressure_min": 55.0,
              "pressure_max": 55.0}]
    for r in range(rows):
        for c in range(cols):
            nid = node_id(r, c)
            nodes.append({"id": nid, "kind": "exit" if nid in exits else "inner",
                          "pressure_min": 50.0 if nid in exits else 1.0,
                          "pressure_max": 100.0,
                          "elevation": rng.uniform(0.0, 150.0)})
    pipes = []
    for r in range(rows):
        for c in range(cols):
            for r_to, c_to in ((r, c + 1), (r + 1, c)):
                if r_to < rows and c_to < cols:
                    pipes.append({"id": f"p{len(pipes)}", "from": node_id(r, c),
                                  "to": node_id(r_to, c_to),
                                  "length": 1000.0 * rng.choice((4, 8, 12, 16, 20)),
                                  "diameter": rng.uniform(0.45, 0.7),
                                  "friction": rng.uniform(0.010, 0.013)})
    net, gas = network_from_dict({
        "format_version": 1,
        "units": "bar",
        "gas": {"specific_gas_constant": 518.26, "temperature": 283.15,
                "compressibility": 0.9},
        "nodes": nodes,
        "pipes": pipes,
        "compressors": [{"id": "c0", "from": "entry", "to": node_id(0, 0),
                         "lift_max": 35.0, "cost_coeff": 1.0}],
    })
    scn = scenario_from_dict({"format_version": 1,
                              "flows": {"entry": -150.0, **exits}})
    return net, gas, scn


@pytest.fixture
def grid_mesh():
    """Builder of the seeded grid mesh: grid_mesh(rows, cols)."""
    return _grid_mesh

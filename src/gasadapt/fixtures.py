"""Synthetic benchmark networks.

chain-5: a supply, one compressor, and five serial pipes with mixed
slopes. tree-12: a trunk line feeding a junction with two branches (one
boosted by a second compressor), twelve pipes total. Parameters are
loosely modeled on transport-grid pipes: lengths of a few tens of km,
diameters 0.4-0.9 m, Nikuradse-type friction factors around 0.01, and
operating pressures of 40-80 bar.
"""

from __future__ import annotations

from .fileio import network_from_dict, scenario_from_dict


def _network_dict(nodes, pipes, compressors) -> dict:
    """A network file in bar with the fixtures' natural-gas parameters."""
    return {
        "format_version": 1,
        "units": "bar",
        "gas": {
            "specific_gas_constant": 518.26,
            "temperature": 283.15,
            "compressibility": 0.9,
        },
        "nodes": nodes,
        "pipes": pipes,
        "compressors": compressors,
    }


def chain5_network_dict() -> dict:
    nodes = [
        {"id": "entry", "kind": "entry", "pressure_min": 50.0, "pressure_max": 50.0},
        {"id": "n1", "kind": "inner", "pressure_min": 1.0, "pressure_max": 100.0},
        {"id": "n2", "kind": "inner", "pressure_min": 1.0, "pressure_max": 100.0,
         "elevation": 120.0},
        {"id": "n3", "kind": "inner", "pressure_min": 1.0, "pressure_max": 100.0,
         "elevation": 40.0},
        {"id": "n4", "kind": "inner", "pressure_min": 1.0, "pressure_max": 100.0,
         "elevation": 90.0},
        {"id": "n5", "kind": "inner", "pressure_min": 1.0, "pressure_max": 100.0,
         "elevation": 60.0},
        {"id": "exit", "kind": "exit", "pressure_min": 42.0, "pressure_max": 100.0,
         "elevation": 0.0},
    ]
    pipes = [
        {"id": "p1", "from": "n1", "to": "n2", "length": 16000.0, "diameter": 0.6,
         "friction": 0.010},
        {"id": "p2", "from": "n2", "to": "n3", "length": 12000.0, "diameter": 0.6,
         "friction": 0.011},
        {"id": "p3", "from": "n3", "to": "n4", "length": 20000.0, "diameter": 0.55,
         "friction": 0.010},
        {"id": "p4", "from": "n4", "to": "n5", "length": 8000.0, "diameter": 0.5,
         "friction": 0.012},
        {"id": "p5", "from": "n5", "to": "exit", "length": 14000.0, "diameter": 0.6,
         "friction": 0.010},
    ]
    compressors = [
        {"id": "c1", "from": "entry", "to": "n1", "lift_max": 30.0,
         "cost_coeff": 1.0},
    ]
    return _network_dict(nodes, pipes, compressors)


def chain5_scenario_dict() -> dict:
    return {"format_version": 1, "flows": {"entry": -55.0, "exit": 55.0}}


def tree12_network_dict() -> dict:
    def inner(nid, elevation=0.0):
        return {"id": nid, "kind": "inner", "pressure_min": 1.0,
                "pressure_max": 100.0, "elevation": elevation}

    nodes = [
        {"id": "entry", "kind": "entry", "pressure_min": 55.0, "pressure_max": 55.0},
        inner("t0"),
        inner("t1", 60.0),
        inner("t2", 150.0),
        inner("t3", 90.0),
        inner("junction", 110.0),
        inner("a1", 80.0),
        inner("a2", 130.0),
        inner("a3", 70.0),
        {"id": "exit_a", "kind": "exit", "pressure_min": 40.0, "pressure_max": 100.0,
         "elevation": 30.0},
        inner("b0", 110.0),
        inner("b1", 160.0),
        inner("b2", 100.0),
        inner("b3", 140.0),
        {"id": "exit_b", "kind": "exit", "pressure_min": 45.0, "pressure_max": 100.0,
         "elevation": 120.0},
    ]
    # the trunk carries the full supply: long pipes, large drops; branch A is
    # mid-weight, branch B short and light
    pipes = [
        {"id": "t01", "from": "t0", "to": "t1", "length": 24000.0, "diameter": 0.7,
         "friction": 0.010},
        {"id": "t02", "from": "t1", "to": "t2", "length": 28000.0, "diameter": 0.7,
         "friction": 0.010},
        {"id": "t03", "from": "t2", "to": "t3", "length": 20000.0, "diameter": 0.65,
         "friction": 0.011},
        {"id": "t04", "from": "t3", "to": "junction", "length": 16000.0,
         "diameter": 0.65, "friction": 0.011},
        {"id": "a01", "from": "junction", "to": "a1", "length": 12000.0,
         "diameter": 0.55, "friction": 0.011},
        {"id": "a02", "from": "a1", "to": "a2", "length": 10000.0, "diameter": 0.55,
         "friction": 0.011},
        {"id": "a03", "from": "a2", "to": "a3", "length": 9000.0, "diameter": 0.5,
         "friction": 0.012},
        {"id": "a04", "from": "a3", "to": "exit_a", "length": 11000.0,
         "diameter": 0.5, "friction": 0.012},
        {"id": "b01", "from": "b0", "to": "b1", "length": 6000.0, "diameter": 0.45,
         "friction": 0.012},
        {"id": "b02", "from": "b1", "to": "b2", "length": 5000.0, "diameter": 0.45,
         "friction": 0.012},
        {"id": "b03", "from": "b2", "to": "b3", "length": 7000.0, "diameter": 0.4,
         "friction": 0.013},
        {"id": "b04", "from": "b3", "to": "exit_b", "length": 4000.0,
         "diameter": 0.4, "friction": 0.013},
    ]
    compressors = [
        {"id": "c1", "from": "entry", "to": "t0", "lift_max": 35.0,
         "cost_coeff": 1.0},
        {"id": "c2", "from": "junction", "to": "b0", "lift_max": 25.0,
         "cost_coeff": 1.5},
    ]
    return _network_dict(nodes, pipes, compressors)


def tree12_scenario_dict() -> dict:
    return {
        "format_version": 1,
        "flows": {"entry": -75.0, "exit_a": 50.0, "exit_b": 25.0},
    }


def chain5():
    """(Network, GasParameters, Scenario) for the 5-pipe chain."""
    net, gas = network_from_dict(chain5_network_dict())
    return net, gas, scenario_from_dict(chain5_scenario_dict())


def tree12():
    """(Network, GasParameters, Scenario) for the 12-pipe tree."""
    net, gas = network_from_dict(tree12_network_dict())
    return net, gas, scenario_from_dict(tree12_scenario_dict())

"""Gas network data model: nodes, pipes, compressors, scenarios.

All quantities are strict SI (Pa, kg/s, m). Unit conversion happens once
at file ingestion, never here.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import ValidationError

BALANCE_TOL = 1e-9
AREA_RTOL = 1e-9

NODE_KINDS = ("entry", "exit", "inner")


@dataclass(frozen=True)
class Node:
    id: str
    kind: str  # entry | exit | inner
    pressure_min: float  # Pa
    pressure_max: float  # Pa
    elevation: float = 0.0  # m


@dataclass(frozen=True)
class Pipe:
    id: str
    from_node: str
    to_node: str
    length: float  # m
    diameter: float  # m
    friction: float  # Darcy friction factor, dimensionless
    cross_area: float = None  # m^2, derived from diameter when omitted
    slope: float = None  # rise over run; derived from elevations when omitted
    flow_min: float = -1e6  # kg/s
    flow_max: float = 1e6  # kg/s

    def __post_init__(self):
        if self.cross_area is None:
            object.__setattr__(self, "cross_area", math.pi * self.diameter**2 / 4.0)


@dataclass(frozen=True)
class Compressor:
    id: str
    from_node: str
    to_node: str
    lift_max: float  # Pa
    cost_coeff: float  # cost per Pa of lift
    flow_min: float = -1e6
    flow_max: float = 1e6


def nikuradse_friction(diameter: float, roughness: float) -> float:
    """Friction factor for fully rough turbulent flow in a circular pipe."""
    return (2.0 * math.log10(diameter / roughness) + 1.138) ** -2


@dataclass(frozen=True)
class GasParameters:
    specific_gas_constant: float = 518.26  # J/(kg K)
    temperature: float = 283.15  # K
    compressibility: float = 0.9
    gravity: float = 9.80665  # m/s^2


@dataclass(frozen=True)
class Scenario:
    """Boundary mass flows per node: <= 0 at entries, >= 0 at exits."""

    flows: dict = field(default_factory=dict)  # node id -> kg/s

    def flow_at(self, node_id: str) -> float:
        return self.flows.get(node_id, 0.0)


class Network:
    def __init__(self, nodes, pipes, compressors=()):
        """ValidationError when two nodes share an id, or two arcs, pipes and
        compressors alike: each record is kept by its id."""
        nodes, pipes, compressors = list(nodes), list(pipes), list(compressors)
        repeated = [
            f"{kind} {id_}: duplicate id"
            for kind, records in (("node", nodes), ("arc", pipes + compressors))
            for id_, count in Counter(record.id for record in records).items()
            if count > 1
        ]
        if repeated:
            raise ValidationError(repeated)
        self.nodes = {n.id: n for n in nodes}
        self.pipes = {p.id: p for p in pipes}
        self.compressors = {c.id: c for c in compressors}

    @property
    def arcs(self):
        arcs = dict(self.pipes)
        arcs.update(self.compressors)
        return arcs


def slope_of(pipe: Pipe, net: Network) -> float:
    """Pipe slope: explicit per-pipe value wins over elevation difference."""
    if pipe.slope is not None:
        return pipe.slope
    z_from = net.nodes[pipe.from_node].elevation
    z_to = net.nodes[pipe.to_node].elevation
    return (z_to - z_from) / pipe.length


def mass_balance_residual(net: Network, scn: Scenario, flows: dict) -> dict:
    """Per-node defect of inflow minus outflow minus boundary flow."""
    residual = {node_id: -scn.flow_at(node_id) for node_id in net.nodes}
    for arc in net.arcs.values():
        residual[arc.to_node] += flows[arc.id]
        residual[arc.from_node] -= flows[arc.id]
    return residual


def validate_network(net: Network, scn: Scenario = None) -> list:
    """Collect every violated structural invariant; empty list means valid."""
    problems = []
    for node in net.nodes.values():
        if node.kind not in NODE_KINDS:
            problems.append(f"node {node.id}: unknown kind '{node.kind}'")
        if not (0.0 < node.pressure_min <= node.pressure_max):
            problems.append(
                f"node {node.id}: pressure bounds inverted or non-positive "
                f"[{node.pressure_min}, {node.pressure_max}]"
            )
    for arc in net.arcs.values():
        for endpoint in (arc.from_node, arc.to_node):
            if endpoint not in net.nodes:
                problems.append(f"arc {arc.id}: dangling endpoint '{endpoint}'")
        if arc.flow_min > arc.flow_max:
            problems.append(f"arc {arc.id}: flow bounds inverted")
    for pipe in net.pipes.values():
        if pipe.length <= 0.0:
            problems.append(f"pipe {pipe.id}: non-positive length")
        if pipe.diameter <= 0.0:
            problems.append(f"pipe {pipe.id}: non-positive diameter")
        elif not math.isclose(
            pipe.cross_area, math.pi * pipe.diameter**2 / 4.0, rel_tol=AREA_RTOL
        ):
            problems.append(f"pipe {pipe.id}: cross_area inconsistent with diameter")
        if pipe.friction <= 0.0:
            problems.append(f"pipe {pipe.id}: non-positive friction factor")
        if pipe.slope is not None and abs(pipe.slope) >= 1.0:
            problems.append(f"pipe {pipe.id}: slope magnitude >= 1")
    for comp in net.compressors.values():
        if comp.lift_max < 0.0:
            problems.append(f"compressor {comp.id}: negative lift_max")
        if comp.cost_coeff < 0.0:
            problems.append(f"compressor {comp.id}: negative cost coefficient")

    if not problems and net.nodes and not _is_connected(net):
        problems.append("network is not connected")

    if scn is not None:
        for node_id, flow in scn.flows.items():
            node = net.nodes.get(node_id)
            if node is None:
                problems.append(f"scenario: unknown node '{node_id}'")
                continue
            if node.kind == "entry" and flow > 0.0:
                problems.append(f"scenario: positive flow {flow} at entry {node_id}")
            if node.kind == "exit" and flow < 0.0:
                problems.append(f"scenario: negative flow {flow} at exit {node_id}")
            if node.kind == "inner" and flow != 0.0:
                problems.append(f"scenario: nonzero flow {flow} at inner node {node_id}")
        imbalance = sum(scn.flows.get(n, 0.0) for n in net.nodes)
        if abs(imbalance) > BALANCE_TOL:
            problems.append(f"global imbalance {imbalance}")
    return problems


def _is_connected(net: Network) -> bool:
    start = next(iter(net.nodes))
    seen = {start}
    stack = [start]
    adjacency = {n: set() for n in net.nodes}
    for arc in net.arcs.values():
        if arc.from_node in adjacency and arc.to_node in adjacency:
            adjacency[arc.from_node].add(arc.to_node)
            adjacency[arc.to_node].add(arc.from_node)
    while stack:
        node = stack.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return len(seen) == len(net.nodes)

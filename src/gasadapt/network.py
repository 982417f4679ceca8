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

NODE_KINDS = ("entry", "exit", "inner")
# the fields that must be finite; an infinite pressure, flow or lift bound
# means no bound
FINITE_FIELDS = frozenset(("length", "diameter", "friction", "slope", "elevation"))
INFINITIES = (math.inf, -math.inf)


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
    slope: float = None  # rise over run; derived from elevations when omitted
    flow_min: float = -1e6  # kg/s
    flow_max: float = 1e6  # kg/s

    @property
    def cross_area(self) -> float:  # m^2
        return math.pi * self.diameter**2 / 4.0


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
        """ValidationError listing each id that two nodes, or two arcs, share
        (records are kept by id), else each of `_structural_problems`."""
        nodes, pipes, compressors = list(nodes), list(pipes), list(compressors)
        repeated = [
            f"{kind} {id_}: duplicate id"
            for kind, records in (("node", nodes), ("arc", pipes + compressors))
            for id_, count in Counter(record.id for record in records).items()
            if count > 1
        ]
        self.nodes = {n.id: n for n in nodes}
        self.pipes = {p.id: p for p in pipes}
        self.compressors = {c.id: c for c in compressors}
        problems = repeated or _structural_problems(self)
        if problems:
            raise ValidationError(problems)

    @property
    def arcs(self):
        return {**self.pipes, **self.compressors}


def slope_of(pipe: Pipe, net: Network) -> float:
    """Pipe slope: explicit per-pipe value wins over elevation difference."""
    if pipe.slope is not None:
        return pipe.slope
    z_from = net.nodes[pipe.from_node].elevation
    z_to = net.nodes[pipe.to_node].elevation
    return (z_to - z_from) / pipe.length


def _structural_problems(net: Network) -> list:
    """Every violated invariant of a network with unique ids, in order."""
    # every NaN number, and an infinite one among FINITE_FIELDS
    problems = [
        f"{kind} {record.id}: {name} {value} is not finite"
        for kind, records in (
            ("node", net.nodes), ("pipe", net.pipes), ("compressor", net.compressors)
        )
        for record in records.values()
        for name, value in vars(record).items()
        # NaN alone differs from itself
        if value != value or (name in FINITE_FIELDS and value in INFINITIES)
    ]
    for node in net.nodes.values():
        if node.kind not in NODE_KINDS:
            problems.append(f"node {node.id}: unknown kind '{node.kind}'")
        if not (0.0 < node.pressure_min <= node.pressure_max):
            problems.append(
                f"node {node.id}: pressure bounds inverted or non-positive "
                f"[{node.pressure_min}, {node.pressure_max}]"
            )
        if node.pressure_min == math.inf:
            problems.append(f"node {node.id}: pressure bounds admit no finite value")
    for arc in net.arcs.values():
        for endpoint in (arc.from_node, arc.to_node):
            if endpoint not in net.nodes:
                problems.append(f"arc {arc.id}: dangling endpoint '{endpoint}'")
        if arc.from_node == arc.to_node:
            problems.append(f"arc {arc.id}: joins node '{arc.to_node}' to itself")
        if arc.flow_min > arc.flow_max:
            problems.append(f"arc {arc.id}: flow bounds inverted")
        if arc.flow_min == math.inf or arc.flow_max == -math.inf:
            problems.append(f"arc {arc.id}: flow bounds admit no finite value")
    for pipe in net.pipes.values():
        if pipe.length <= 0.0:
            problems.append(f"pipe {pipe.id}: non-positive length")
        if pipe.diameter <= 0.0:
            problems.append(f"pipe {pipe.id}: non-positive diameter")
        if pipe.friction <= 0.0:
            problems.append(f"pipe {pipe.id}: non-positive friction factor")
        ends = {pipe.from_node, pipe.to_node}
        derivable = pipe.length > 0.0 and ends <= net.nodes.keys()
        if (pipe.slope is not None or derivable) and abs(slope_of(pipe, net)) >= 1.0:
            problems.append(f"pipe {pipe.id}: slope magnitude >= 1")
    for comp in net.compressors.values():
        if comp.lift_max < 0.0:
            problems.append(f"compressor {comp.id}: negative lift_max")
        if comp.cost_coeff < 0.0:
            problems.append(f"compressor {comp.id}: negative cost coefficient")

    if not problems and net.nodes and not _is_connected(net):
        problems.append("network is not connected")
    return problems


def validate_scenario(net: Network, scn: Scenario) -> None:
    """ValidationError listing each boundary flow at an unknown node, not
    finite or of the wrong sign for its node's kind, and a global imbalance."""
    problems = []
    for node_id, flow in scn.flows.items():
        node = net.nodes.get(node_id)
        if node is None:
            problems.append(f"scenario: unknown node '{node_id}'")
        elif not math.isfinite(flow):
            problems.append(f"scenario: flow {flow} at node {node_id} is not finite")
        elif node.kind == "entry" and flow > 0.0:
            problems.append(f"scenario: positive flow {flow} at entry {node_id}")
        elif node.kind == "exit" and flow < 0.0:
            problems.append(f"scenario: negative flow {flow} at exit {node_id}")
        elif node.kind == "inner" and flow != 0.0:
            problems.append(f"scenario: nonzero flow {flow} at inner node {node_id}")
    imbalance = sum(scn.flows.get(n, 0.0) for n in net.nodes)
    if abs(imbalance) > BALANCE_TOL:
        problems.append(f"global imbalance {imbalance}")
    if problems:
        raise ValidationError(problems)


def _is_connected(net: Network) -> bool:
    adjacency = {n: set() for n in net.nodes}
    for arc in net.arcs.values():
        adjacency[arc.from_node].add(arc.to_node)
        adjacency[arc.to_node].add(arc.from_node)
    seen, stack = set(), [next(iter(net.nodes))]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(adjacency[node])
    return len(seen) == len(net.nodes)

"""JSON file formats for networks, scenarios, configs, and solutions,
plus CSV export of traces and estimate tables.

Pressure-valued fields may be given in bar (``"units": "bar"``) and are
converted to SI once on ingestion. All in-memory objects are strict SI.
"""

from __future__ import annotations

import contextlib
import csv
import json

from .controller import AdaptiveConfig, AdaptiveState
from .errors import ParseError, ValidationError
from .models import ModelLevel
from .network import (
    Compressor,
    GasParameters,
    Network,
    Node,
    Pipe,
    Scenario,
    nikuradse_friction,
    validate_network,
)
from .nlp import NlpSolution

FORMAT_VERSION = 1
BAR = 1e5


def _load_json(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at the top level")
    return doc


@contextlib.contextmanager
def _writable(path_or_handle):
    """The given handle, or the named file opened for writing."""
    if hasattr(path_or_handle, "write"):
        yield path_or_handle
    else:
        with open(path_or_handle, "w", newline="") as handle:
            yield handle


def write_json(doc, path_or_handle):
    """Indented JSON with sorted keys and a trailing newline."""
    with _writable(path_or_handle) as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(header, rows, path_or_handle):
    with _writable(path_or_handle) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _require(doc, key, context):
    if not isinstance(doc, dict):
        raise ParseError(f"{context}: expected an object, got {doc!r}")
    if key not in doc:
        raise ParseError(f"{context}: missing required field '{key}'")
    return doc[key]


def _pressure_scale(doc):
    units = doc.get("units", "si")
    if units == "si":
        return 1.0
    if units == "bar":
        return BAR
    raise ParseError(f"unknown units '{units}' (expected 'si' or 'bar')")


# -- network -----------------------------------------------------------------


def network_from_dict(doc) -> tuple:
    scale = _pressure_scale(doc)
    gas_doc = doc.get("gas", {})
    gas = GasParameters(
        specific_gas_constant=gas_doc.get("specific_gas_constant", 518.26),
        temperature=gas_doc.get("temperature", 283.15),
        compressibility=gas_doc.get("compressibility", 0.9),
        gravity=gas_doc.get("gravity", 9.80665),
    )
    nodes = []
    for entry in _require(doc, "nodes", "network"):
        nodes.append(
            Node(
                id=_require(entry, "id", "node"),
                kind=_require(entry, "kind", f"node {entry.get('id')}"),
                pressure_min=_require(entry, "pressure_min", f"node {entry.get('id')}")
                * scale,
                pressure_max=_require(entry, "pressure_max", f"node {entry.get('id')}")
                * scale,
                elevation=entry.get("elevation", 0.0),
            )
        )
    pipes = []
    for entry in doc.get("pipes", []):
        pid = _require(entry, "id", "pipe")
        diameter = _require(entry, "diameter", f"pipe {pid}")
        if "friction" in entry:
            friction = entry["friction"]
        elif "roughness" in entry:
            friction = nikuradse_friction(diameter, entry["roughness"])
        else:
            raise ParseError(f"pipe {pid}: needs 'friction' or 'roughness'")
        pipes.append(
            Pipe(
                id=pid,
                from_node=_require(entry, "from", f"pipe {pid}"),
                to_node=_require(entry, "to", f"pipe {pid}"),
                length=_require(entry, "length", f"pipe {pid}"),
                diameter=diameter,
                friction=friction,
                cross_area=entry.get("cross_area"),
                slope=entry.get("slope"),
                flow_min=entry.get("flow_min", -1e6),
                flow_max=entry.get("flow_max", 1e6),
            )
        )
    compressors = []
    for entry in doc.get("compressors", []):
        cid = _require(entry, "id", "compressor")
        compressors.append(
            Compressor(
                id=cid,
                from_node=_require(entry, "from", f"compressor {cid}"),
                to_node=_require(entry, "to", f"compressor {cid}"),
                lift_max=_require(entry, "lift_max", f"compressor {cid}") * scale,
                cost_coeff=_require(entry, "cost_coeff", f"compressor {cid}") / scale,
                flow_min=entry.get("flow_min", -1e6),
                flow_max=entry.get("flow_max", 1e6),
            )
        )
    net = Network(nodes, pipes, compressors)
    problems = validate_network(net)
    if problems:
        raise ValidationError(problems)
    return net, gas


def network_to_dict(net: Network, gas: GasParameters) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "units": "si",
        "gas": {
            "specific_gas_constant": gas.specific_gas_constant,
            "temperature": gas.temperature,
            "compressibility": gas.compressibility,
            "gravity": gas.gravity,
        },
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "pressure_min": n.pressure_min,
                "pressure_max": n.pressure_max,
                "elevation": n.elevation,
            }
            for n in net.nodes.values()
        ],
        "pipes": [
            {
                "id": p.id,
                "from": p.from_node,
                "to": p.to_node,
                "length": p.length,
                "diameter": p.diameter,
                "cross_area": p.cross_area,
                "friction": p.friction,
                **({"slope": p.slope} if p.slope is not None else {}),
                "flow_min": p.flow_min,
                "flow_max": p.flow_max,
            }
            for p in net.pipes.values()
        ],
        "compressors": [
            {
                "id": c.id,
                "from": c.from_node,
                "to": c.to_node,
                "lift_max": c.lift_max,
                "cost_coeff": c.cost_coeff,
                "flow_min": c.flow_min,
                "flow_max": c.flow_max,
            }
            for c in net.compressors.values()
        ],
    }


def load_network(path) -> tuple:
    """Parse, convert to SI, and validate a network file."""
    return network_from_dict(_load_json(path))


def save_network(net, gas, path):
    write_json(network_to_dict(net, gas), path)


# -- scenario and config -----------------------------------------------------


def scenario_from_dict(doc) -> Scenario:
    return Scenario(dict(_require(doc, "flows", "scenario")))


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_load_json(path))


def save_scenario(scn: Scenario, path):
    write_json({"format_version": FORMAT_VERSION, "flows": scn.flows}, path)


CONFIG_FIELDS = (
    "theta_d",
    "theta_m",
    "phi_d",
    "phi_m",
    "tau",
    "mu",
    "eps_opt",
    "max_outer_iterations",
    "initial_intervals",
    "initial_level",
    "split_tolerance",
)


def config_from_dict(doc) -> AdaptiveConfig:
    unknown = sorted(set(doc) - {"format_version", "eps_bar", "eps", *CONFIG_FIELDS})
    if unknown:
        raise ParseError(f"config: unknown keys {unknown}")
    kwargs = {key: doc[key] for key in CONFIG_FIELDS if key in doc}
    if "eps_bar" in doc:
        kwargs["eps"] = doc["eps_bar"] * BAR
    elif "eps" in doc:
        kwargs["eps"] = doc["eps"]
    try:
        return AdaptiveConfig(**kwargs)
    except ValueError as exc:
        raise ParseError(f"config: {exc}") from exc


def load_config(path) -> AdaptiveConfig:
    return config_from_dict(_load_json(path))


# -- solutions ---------------------------------------------------------------


def solution_to_dict(sol: NlpSolution, pipe_states: dict = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "status": sol.status,
        "objective": sol.objective,
        "kkt_error": sol.kkt_error,
        "n_iterations": sol.n_iterations,
        "node_pressures": sol.node_pressures,
        "arc_flows": sol.arc_flows,
        "compressor_lifts": sol.compressor_lifts,
        "interior_pressures": {
            pid: list(map(float, values))
            for pid, values in sol.interior_pressures.items()
        },
    }
    if pipe_states is not None:
        doc["pipe_states"] = {
            pid: {"level": int(level), "stepsize": h}
            for pid, (level, h) in pipe_states.items()
        }
    return doc


def save_solution(sol: NlpSolution, path, pipe_states: dict = None):
    write_json(solution_to_dict(sol, pipe_states), path)


def load_solution(path) -> tuple:
    """Returns (NlpSolution, pipe_states or None)."""
    doc = _load_json(path)
    import numpy as np

    sol = NlpSolution(
        status=_require(doc, "status", "solution"),
        objective=doc.get("objective", 0.0),
        node_pressures=dict(_require(doc, "node_pressures", "solution")),
        arc_flows=dict(_require(doc, "arc_flows", "solution")),
        compressor_lifts=dict(doc.get("compressor_lifts", {})),
        interior_pressures={
            pid: np.asarray(values)
            for pid, values in doc.get("interior_pressures", {}).items()
        },
        kkt_error=doc.get("kkt_error", 0.0),
        n_iterations=doc.get("n_iterations", 0),
    )
    pipe_states = None
    if "pipe_states" in doc:
        pipe_states = {
            pid: (ModelLevel.of(entry["level"]), entry["stepsize"])
            for pid, entry in doc["pipe_states"].items()
        }
    return sol, pipe_states


# -- trace and estimate export -----------------------------------------------

TRACE_COLUMNS = [
    "solve_index",
    "outer_k",
    "inner_j",
    "n_vars",
    "n_cons",
    "nlp_seconds",
    "ivp_seconds",
    "sum_eta_d",
    "sum_eta_m",
    "sum_eta",
    "avg_eta",
    "n_refined",
    "n_switched_up",
    "n_coarsened",
    "n_switched_down",
]


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def export_trace(state: AdaptiveState, path):
    """One CSV row per NLP solve, ordered by solve index."""
    rows = (
        [_fmt(getattr(record, col)) for col in TRACE_COLUMNS] for record in state.trace
    )
    _write_csv(TRACE_COLUMNS, rows, path)


ESTIMATE_COLUMNS = ["pipe_id", "level", "stepsize", "eta_d", "eta_m", "eta"]


def export_estimates(estimates, path_or_handle):
    """Per-pipe estimator table, sorted by pipe id for determinism."""
    rows = (
        [
            est.pipe_id,
            int(est.level),
            _fmt(est.stepsize),
            _fmt(est.eta_d),
            _fmt(est.eta_m),
            _fmt(est.eta),
        ]
        for est in sorted(estimates, key=lambda e: e.pipe_id)
    )
    _write_csv(ESTIMATE_COLUMNS, rows, path_or_handle)


def export_profile(profile, path_or_handle):
    """Position/pressure CSV for one integrated pipe profile."""
    rows = (
        [_fmt(float(x)), _fmt(float(p))]
        for x, p in zip(profile.grid.positions(), profile.values)
    )
    _write_csv(["x", "pressure"], rows, path_or_handle)

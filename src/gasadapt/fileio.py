"""JSON file formats for networks, scenarios, configs, and solutions,
plus CSV export of traces and estimate tables.

Pressure-valued fields may be given in bar (``"units": "bar"``) and are
converted to SI once on ingestion. All in-memory objects are strict SI.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
from dataclasses import MISSING

import numpy as np

from .controller import AdaptiveConfig, AdaptiveState, TraceRecord
from .errors import ParseError
from .models import ModelLevel
from .network import (
    Compressor,
    GasParameters,
    Network,
    Node,
    Pipe,
    Scenario,
    nikuradse_friction,
)
from .nlp import NlpSolution

FORMAT_VERSION = 1
BAR = 1e5


def _load_json(path):
    def non_finite(literal):  # NaN and Infinity are not JSON (RFC 8259)
        raise ParseError(f"{path}: {literal} is not a JSON number")

    def unique_keys(pairs):  # a dict would keep the last of a repeated key
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ParseError(f"{path}: repeated key '{key}'")
            doc[key] = value
        return doc

    try:
        with open(path) as handle:
            doc = json.load(
                handle, parse_constant=non_finite, object_pairs_hook=unique_keys
            )
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return _check(doc, "dict", f"{path}: top level")


@contextlib.contextmanager
def _writable(path_or_handle):
    """The given handle, or the named file opened for writing."""
    if hasattr(path_or_handle, "write"):
        yield path_or_handle
    else:
        with open(path_or_handle, "w", newline="") as handle:
            yield handle


def write_json(doc, path_or_handle):
    """Compact JSON with sorted keys on one line and a trailing newline:
    `json.dumps` without indent encodes in C, `json.dump` never does."""
    with _writable(path_or_handle) as handle:
        handle.write(json.dumps(doc, sort_keys=True) + "\n")


def _write_csv(header, rows, path_or_handle):
    with _writable(path_or_handle) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


_TYPES = dict(float=(int, float), int=int, str=str, bool=bool, list=list, dict=dict)
ARC_KEYS = {"from_node": "from", "to_node": "to"}
NETWORK_KEYS = ("format_version", "units", "gas", "nodes", "pipes", "compressors")
# fields given in the file's pressure unit; cost_coeff is per pressure unit
PRESSURE_FIELDS = ("pressure_min", "pressure_max", "lift_max")


def _check(value, kind, context):
    """The value, if it has the JSON type `kind`; a bool is never a number,
    and a number is a finite double (1e400 parses to inf, and an integer
    of 400 digits overflows where it meets a float)."""
    expected = _TYPES.get(kind, ())
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, expected):
        raise ParseError(f"{context}: expected {kind}, got {value!r}")
    if kind in ("float", "int"):
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ParseError(f"{context}: {kind} outside the range of a double")
    return value


def _get(doc, key, context, kind, default=None):
    """The value under `key`, of type `kind`; required without a default."""
    if key not in doc and default is None:
        raise ParseError(f"{context}: missing required field '{key}'")
    return _check(doc.get(key, default), kind, f"{context}: field '{key}'")


def _known(doc, keys, context):
    """The JSON object `doc`, if each of its keys is one of `keys` and its
    `format_version`, where given, is the integer 1."""
    unknown = sorted(set(_check(doc, "dict", context)) - set(keys))
    if unknown:
        raise ParseError(f"{context}: unknown keys {unknown}")
    version = doc.get("format_version", FORMAT_VERSION)
    # 1.0 and true equal 1 in Python
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(
            f"{context}: format_version {version!r} is not {FORMAT_VERSION}"
        )
    return doc


def _record(cls, doc, context, convert=None, keys=None, extra=(), omit=(), **given):
    """The dataclass `cls` read from the JSON object `doc`.

    Each field not in `given` is read under its own name or under its
    renamed key in `keys`. A field without a default is required; an absent
    one takes the dataclass default. A value must have the type of the
    field's annotation (None is allowed where the default is None) and is
    then passed through its function in `convert`, if any. A key that names
    no field and is not in `extra` is an error; a field in `omit` is none
    and keeps its default."""
    if isinstance(doc, dict) and isinstance(doc.get("id"), str):
        context = f"{context} {doc['id']}"
    convert, keys = convert or {}, keys or {}
    fields = [f for f in dataclasses.fields(cls) if f.name not in omit]
    _known(doc, [keys.get(f.name, f.name) for f in fields] + list(extra), context)
    values = dict(given)
    for field in fields:
        key = keys.get(field.name, field.name)
        if field.name in given or (key not in doc and field.default is not MISSING):
            continue
        value = doc.get(key)
        if value is not None or field.default is not None:
            kind = getattr(field.type, "__name__", field.type)
            value = _get(doc, key, context, kind)
            if field.name in convert:
                value = convert[field.name](value)
        values[field.name] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from exc


def _number(value, context):
    return _check(value, "float", context)


def _id_map(doc, key, context, default=None, read=_number):
    """The object under `key` from ids to values that `read` checks;
    required unless a default is given."""
    items = _get(doc, key, context, "dict", default).items()
    return {id_: read(value, f"{context}: {key} '{id_}'") for id_, value in items}


# -- network -----------------------------------------------------------------


def _pipe(entry):
    if isinstance(entry, dict) and "roughness" in entry:
        context = f"pipe {entry.get('id')}"
        if "friction" in entry:
            raise ParseError(
                f"{context}: give one of 'friction' and 'roughness', not both"
            )
        diameter = _get(entry, "diameter", context, "float")
        roughness = _get(entry, "roughness", context, "float")
        if not 0.0 < roughness < diameter:
            raise ParseError(f"{context}: roughness outside (0, diameter)")
        entry = {**entry, "friction": nikuradse_friction(diameter, roughness)}
    return _record(Pipe, entry, "pipe", keys=ARC_KEYS, extra=["roughness"])


def network_from_dict(doc) -> tuple:
    units = _known(doc, NETWORK_KEYS, "network").get("units", "si")
    if units not in ("si", "bar"):
        raise ParseError(f"unknown units '{units}' (expected 'si' or 'bar')")
    scale = BAR if units == "bar" else 1.0
    to_si = {name: lambda value: value * scale for name in PRESSURE_FIELDS}
    to_si["cost_coeff"] = lambda value: value / scale
    gas = _record(GasParameters, doc.get("gas", {}), "gas")
    nodes = [
        _record(Node, entry, "node", to_si)
        for entry in _get(doc, "nodes", "network", "list")
    ]
    pipes = [_pipe(entry) for entry in _get(doc, "pipes", "network", "list", [])]
    compressors = [
        _record(Compressor, entry, "compressor", to_si, ARC_KEYS)
        for entry in _get(doc, "compressors", "network", "list", [])
    ]
    return Network(nodes, pipes, compressors), gas


def _as_dict(record, keys=None):
    keys = keys or {}
    return {keys.get(k, k): v for k, v in dataclasses.asdict(record).items()}


def network_to_dict(net: Network, gas: GasParameters) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "units": "si",
        "gas": _as_dict(gas),
        "nodes": [_as_dict(n) for n in net.nodes.values()],
        "pipes": [_as_dict(p, ARC_KEYS) for p in net.pipes.values()],
        "compressors": [_as_dict(c, ARC_KEYS) for c in net.compressors.values()],
    }


def load_network(path) -> tuple:
    """Parse, convert to SI, and validate a network file."""
    return network_from_dict(_load_json(path))


def save_network(net, gas, path):
    write_json(network_to_dict(net, gas), path)


# -- scenario and config -----------------------------------------------------


def scenario_from_dict(doc) -> Scenario:
    doc = _known(doc, ["format_version", "flows"], "scenario")
    return Scenario(_id_map(doc, "flows", "scenario"))


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_load_json(path))


def save_scenario(scn: Scenario, path):
    write_json({"format_version": FORMAT_VERSION, "flows": scn.flows}, path)


def config_from_dict(doc) -> AdaptiveConfig:
    """The config, with its tolerance given as `eps_bar` in bar or as `eps`
    in Pa, but not both."""
    extra = ["format_version", "eps", "eps_bar"]
    if isinstance(doc, dict) and "eps_bar" in doc:
        if "eps" in doc:
            raise ParseError("config: give one of 'eps' and 'eps_bar', not both")
        bar = {"eps": lambda eps: eps * BAR}
        return _record(AdaptiveConfig, doc, "config", bar, {"eps": "eps_bar"}, extra)
    return _record(AdaptiveConfig, doc, "config", extra=extra)


def load_config(path) -> AdaptiveConfig:
    return config_from_dict(_load_json(path))


# -- solutions ---------------------------------------------------------------


# NlpSolution fields that live only in memory: the warm-start iterate
SOLUTION_IN_MEMORY = ("iterate",)


def solution_to_dict(sol: NlpSolution) -> dict:
    doc = {
        field.name: getattr(sol, field.name)
        for field in dataclasses.fields(sol)
        if field.name not in SOLUTION_IN_MEMORY
    }
    doc["interior_pressures"] = {
        pid: np.asarray(values, dtype=float).tolist()
        for pid, values in sol.interior_pressures.items()
    }
    doc["pipe_states"] = {
        pid: {"level": int(level), "stepsize": h}
        for pid, (level, h) in sol.pipe_states.items()
    }
    return {"format_version": FORMAT_VERSION, **doc}


def save_solution(sol: NlpSolution, path_or_handle):
    write_json(solution_to_dict(sol), path_or_handle)


def _profile(values, context):
    """The list `values` as an array of finite numbers, checked in one pass;
    on failure, the `_number` error of the first value that fails."""
    values = _check(values, "list", context)
    if set(map(type, values)) <= {int, float}:  # a bool is no number
        with contextlib.suppress(OverflowError):  # an int beyond a double
            profile = np.asarray(values, dtype=float)
            if np.isfinite(profile).all():
                return profile
    return np.asarray([_number(v, context) for v in values])


def _pipe_state(entry, context):
    level = _get(_check(entry, "dict", context), "level", context, "int")
    stepsize = _get(entry, "stepsize", context, "float")
    if level not in tuple(ModelLevel):
        raise ParseError(f"{context}: level {level} is not 1, 2 or 3")
    if stepsize <= 0.0:
        raise ParseError(f"{context}: stepsize {stepsize} must be positive")
    return ModelLevel.of(level), stepsize


def load_solution(path) -> NlpSolution:
    """The solution in the file, with the grid it was solved on."""
    doc = _load_json(path)
    return _record(
        NlpSolution,
        doc,
        "solution",
        extra=["format_version"],
        omit=SOLUTION_IN_MEMORY,
        node_pressures=_id_map(doc, "node_pressures", "solution"),
        arc_flows=_id_map(doc, "arc_flows", "solution"),
        compressor_lifts=_id_map(doc, "compressor_lifts", "solution", {}),
        interior_pressures=_id_map(doc, "interior_pressures", "solution", {}, _profile),
        pipe_states=_id_map(doc, "pipe_states", "solution", read=_pipe_state),
    )


# -- trace and estimate export -----------------------------------------------

TRACE_COLUMNS = [f.name for f in dataclasses.fields(TraceRecord)]


def _fmt(value):
    # format, not str: str of an IntEnum is its name before Python 3.11
    return format(value, ".17g" if isinstance(value, float) else "")


def _export(columns, records, path_or_handle):
    """The header `columns`, then one row per record: its attribute of each
    column's name."""
    rows = ([_fmt(getattr(record, col)) for col in columns] for record in records)
    _write_csv(columns, rows, path_or_handle)


def export_trace(state: AdaptiveState, path):
    """One CSV row per NLP solve, ordered by solve index."""
    _export(TRACE_COLUMNS, state.trace, path)


ESTIMATE_COLUMNS = ["pipe_id", "level", "stepsize", "eta_d", "eta_m", "eta"]


def export_estimates(estimates, path_or_handle):
    """Per-pipe estimator table, sorted by pipe id for determinism."""
    estimates = sorted(estimates, key=lambda e: e.pipe_id)
    _export(ESTIMATE_COLUMNS, estimates, path_or_handle)


def export_profile(grid, values, path_or_handle):
    """Position/pressure CSV of the pressures `values` at the grid's points."""
    rows = ([_fmt(float(x)), _fmt(float(p))] for x, p in zip(grid.positions(), values))
    _write_csv(["x", "pressure"], rows, path_or_handle)

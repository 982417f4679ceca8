"""File formats, artifact export, and the command-line interface."""

import copy
import csv
import io
import json

import pytest

from gasadapt import fileio
from gasadapt.cli import main as cli_main
from gasadapt.controller import AdaptiveConfig, AdaptiveState, TraceRecord
from gasadapt.errors import ParseError, ValidationError
from gasadapt.estimators import ErrorEstimate
from gasadapt.fixtures import (
    chain5_network_dict,
    chain5_scenario_dict,
)
from gasadapt.models import ModelLevel


@pytest.fixture
def chain5_files(tmp_path):
    net_path = tmp_path / "net.json"
    scn_path = tmp_path / "scn.json"
    net_path.write_text(json.dumps(chain5_network_dict()))
    scn_path.write_text(json.dumps(chain5_scenario_dict()))
    return str(net_path), str(scn_path)


# -- network format -----------------------------------------------------------


def test_bar_units_scale_pressures():
    net, gas = fileio.network_from_dict(chain5_network_dict())
    assert net.nodes["entry"].pressure_min == 50e5
    assert net.compressors["c1"].lift_max == 30e5
    # cost per Pa so that cost * lift is invariant under the unit change
    assert net.compressors["c1"].cost_coeff == 1.0 / 1e5


def test_network_round_trip_bit_exact(tmp_path):
    net, gas = fileio.network_from_dict(chain5_network_dict())
    path = tmp_path / "round.json"
    fileio.save_network(net, gas, path)
    net2, gas2 = fileio.load_network(path)
    assert gas2 == gas
    assert net2.nodes == net.nodes
    assert net2.pipes == net.pipes
    assert net2.compressors == net.compressors


def test_minimal_network_document():
    doc = {
        "format_version": 1,
        "nodes": [
            {"id": "a", "kind": "entry", "pressure_min": 50e5, "pressure_max": 60e5},
            {"id": "b", "kind": "exit", "pressure_min": 40e5, "pressure_max": 60e5},
        ],
        "pipes": [
            {"id": "p", "from": "a", "to": "b", "length": 1000.0,
             "diameter": 0.5, "friction": 0.01},
        ],
    }
    net, gas = fileio.network_from_dict(doc)
    assert len(net.nodes) == 2 and len(net.pipes) == 1


def test_network_round_trip_roughness_and_slope(tmp_path):
    doc = chain5_network_dict()
    del doc["pipes"][0]["friction"]
    doc["pipes"][0]["roughness"] = 1e-4
    doc["pipes"][1]["slope"] = 0.002
    net, gas = fileio.network_from_dict(doc)
    path = tmp_path / "round.json"
    fileio.save_network(net, gas, path)
    net2, gas2 = fileio.load_network(path)
    assert gas2 == gas
    assert net2.pipes == net.pipes
    assert net2.pipes["p2"].slope == 0.002
    assert net2.pipes["p3"].slope is None


def test_roughness_derives_friction():
    doc = chain5_network_dict()
    del doc["pipes"][0]["friction"]
    doc["pipes"][0]["roughness"] = 1e-4
    net, _ = fileio.network_from_dict(doc)
    from gasadapt.network import nikuradse_friction

    assert net.pipes["p1"].friction == nikuradse_friction(0.6, 1e-4)


def test_missing_field_is_parse_error():
    doc = chain5_network_dict()
    del doc["pipes"][0]["length"]
    with pytest.raises(ParseError):
        fileio.network_from_dict(doc)


def test_invalid_network_raises_validation_error():
    doc = chain5_network_dict()
    doc["nodes"][0]["kind"] = "bogus"
    with pytest.raises(ValidationError):
        fileio.network_from_dict(doc)


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        fileio.load_network(path)


def test_config_from_dict_eps_bar():
    config = fileio.config_from_dict({"eps_bar": 1e-4, "mu": 6})
    assert config.eps == pytest.approx(10.0)
    assert config.mu == 6


def test_config_bad_value_is_parse_error():
    with pytest.raises(ParseError):
        fileio.config_from_dict({"tau": 0.5})


@pytest.mark.parametrize(
    "doc",
    [
        {"thetad": 0.5},  # misspelled theta_d
        {"adaptive_eps_opt": True},  # removed, never implemented
    ],
)
def test_config_unknown_key_is_parse_error(doc, chain5_files, tmp_path):
    with pytest.raises(ParseError):
        fileio.config_from_dict(doc)
    net_path, scn_path = chain5_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = cli_main(
        [
            "run",
            "--network", net_path,
            "--scenario", scn_path,
            "--config", str(cfg_path),
            "--out", str(tmp_path / "artifacts"),
            "--quiet",
        ]
    )
    assert code == 1


def test_solution_round_trip(tmp_path):
    import numpy as np

    from gasadapt.nlp import NlpSolution

    sol = NlpSolution(
        status="LocalOptimum",
        objective=1.5,
        node_pressures={"a": 50e5},
        arc_flows={"p": 12.0},
        compressor_lifts={"c": 2e5},
        interior_pressures={"p": np.array([49e5, 48e5])},
        kkt_error=1e-9,
        n_iterations=7,
    )
    path = tmp_path / "sol.json"
    states = {"p": (ModelLevel.GRAVITY, 250.0)}
    fileio.save_solution(sol, path, states)
    loaded, loaded_states = fileio.load_solution(path)
    assert loaded.node_pressures == sol.node_pressures
    assert loaded.arc_flows == sol.arc_flows
    assert list(loaded.interior_pressures["p"]) == [49e5, 48e5]
    assert loaded_states == states


# -- CSV artifacts ------------------------------------------------------------


def test_trace_schema_and_order(tmp_path):
    state = AdaptiveState()
    for i in range(3):
        state.trace.append(
            TraceRecord(i, i, 0, 10, 8, 0.1, 0.2, 5.0, 1.0, 6.0, 3.0, i, 0, 0, 0)
        )
    path = tmp_path / "trace.csv"
    fileio.export_trace(state, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == fileio.TRACE_COLUMNS
    assert len(rows[0]) == 15
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert all(len(r) == 15 for r in rows[1:])


def test_estimates_sorted_and_unique(tmp_path):
    estimates = [
        ErrorEstimate("b", 1.0, 0.5, ModelLevel.GRAVITY, 100.0),
        ErrorEstimate("a", 2.0, 0.0, ModelLevel.FULL, 50.0),
    ]
    buffer = io.StringIO()
    fileio.export_estimates(estimates, buffer)
    rows = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert rows[0] == fileio.ESTIMATE_COLUMNS
    assert [r[0] for r in rows[1:]] == ["a", "b"]
    assert rows[1][1] == "1" and rows[2][1] == "2"


# -- CLI ----------------------------------------------------------------------


def test_cli_validate_params_benchmark(capsys):
    code = cli_main(["validate-params", "--n-pipes", "39"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("warning") == 1
    assert "model switching" in out


def test_cli_validate_params_clean(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mu": 25}))
    code = cli_main(["validate-params", "--n-pipes", "39", "--config", str(config)])
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_cli_simulate_constant_profile(capsys):
    code = cli_main(["simulate", "--level", "3", "--q", "0", "--h", "2500"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "pressure"]
    assert len(rows) == 6  # header + 5 gridpoints
    assert all(r[1] == rows[1][1] for r in rows[1:])


def test_cli_simulate_bad_grid_is_error(capsys):
    code = cli_main(["simulate", "--h", "123.456", "--length", "1000"])
    assert code == 1


def test_cli_malformed_network_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = cli_main(
        ["nlp-solve", "--network", str(bad), "--scenario", str(bad)]
    )
    assert code == 1


def _edited(doc, path, value):
    """The JSON text of `doc` with the value at the key `path` replaced, or
    deleted when `value` is None."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is None:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return json.dumps(doc)


def _chain5_solution():
    """A well-formed solution document for chain-5 (not an optimum)."""
    net = chain5_network_dict()
    return {
        "format_version": 1,
        "status": "LocalOptimum",
        "objective": 0.0,
        "kkt_error": 0.0,
        "n_iterations": 0,
        "node_pressures": {node["id"]: 50e5 for node in net["nodes"]},
        "arc_flows": {arc["id"]: 55.0 for arc in net["pipes"] + net["compressors"]},
        "pipe_states": {
            pipe["id"]: {"level": 3, "stepsize": pipe["length"] / 4}
            for pipe in net["pipes"]
        },
    }


NETWORK = chain5_network_dict()
SOLUTION = _chain5_solution()
CHECK_NETWORK = ["validate-params", "--network", "BAD"]
SOLVE_SCENARIO = ["nlp-solve", "--network", "NET", "--scenario", "BAD"]
ESTIMATE = ["estimate", "--network", "NET", "--solution", "BAD"]
RUN_CONFIG = ["run", "--network", "NET", "--scenario", "SCN", "--config", "BAD",
              "--out", "OUT", "--quiet"]
RUN_SCENARIO = ["run", "--network", "NET", "--scenario", "BAD", "--out", "OUT",
                "--quiet"]


def _exits_one(argv, content, chain5_files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    names = {
        "BAD": str(bad),
        "NET": chain5_files[0],
        "SCN": chain5_files[1],
        "OUT": str(tmp_path / "out"),
    }
    code = cli_main([names.get(arg, arg) for arg in argv])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv, content",
    [
        (["validate-params", "--n-pipes", "5", "--config", "BAD"], "5"),
        (["validate-params", "--network", "BAD"], "[]"),
        (["validate-params", "--network", "BAD"], '{"nodes": [5]}'),
        (["estimate", "--network", "NET", "--solution", "BAD"], "[]"),
        (CHECK_NETWORK, _edited(NETWORK, ["gas"], [])),
        (CHECK_NETWORK, _edited(NETWORK, ["nodes"], 5)),
        (SOLVE_SCENARIO, '{"flows": 5}'),
        (ESTIMATE, _edited(SOLUTION, ["node_pressures"], 5)),
    ],
    ids=[
        "config-number",
        "network-list",
        "node-number",
        "solution-list",
        "gas-list",
        "nodes-number",
        "flows-number",
        "node-pressures-number",
    ],
)
def test_cli_non_object_document_exits_one(
    argv, content, chain5_files, tmp_path, capsys
):
    _exits_one(argv, content, chain5_files, tmp_path, capsys)


@pytest.mark.parametrize(
    "argv, content",
    [
        (CHECK_NETWORK, _edited(NETWORK, ["pipes", 0, "length"], "16000")),
        (CHECK_NETWORK, _edited(NETWORK, ["pipes", 0, "id"], 1)),
        (CHECK_NETWORK, _edited(NETWORK, ["nodes", 1, "pressure_min"], True)),
        (["validate-params", "--n-pipes", "5", "--config", "BAD"], '{"mu": "4"}'),
        (RUN_CONFIG, '{"mu": 4.0}'),
        (RUN_CONFIG, '{"initial_level": 9}'),
        (SOLVE_SCENARIO, '{"flows": {"entry": "-55", "exit": 55}}'),
        (ESTIMATE, _edited(SOLUTION, ["status"], 5)),
        (ESTIMATE, _edited(SOLUTION, ["pipe_states", "p1", "level"], 9)),
        (ESTIMATE, _edited(SOLUTION, ["pipe_states", "p1", "stepsize"], 0)),
        (ESTIMATE, _edited(SOLUTION, ["arc_flows", "p1"], None)),
        (ESTIMATE, _edited(SOLUTION, ["pipe_states", "p2"], None)),
        (RUN_SCENARIO, '{"flows": {"entry": -55, "nowhere": 55}}'),
        (SOLVE_SCENARIO, '{"flows": {"entry": -55, "nowhere": 55}}'),
        (["nlp-solve", "--network", "NET", "--scenario", "SCN", "--intervals", "0"],
         ""),
        (["simulate", "--h", "0"], ""),
        (["simulate", "--length", "0"], ""),
        (CHECK_NETWORK, _edited(NETWORK, ["pipes", 0, "length"], float("nan"))),
        (CHECK_NETWORK, _edited(NETWORK, ["nodes", 1, "pressure_max"], float("inf"))),
        (CHECK_NETWORK, _edited(NETWORK, ["nodes", 1, "elevaton"], 120.0)),
        (CHECK_NETWORK, _edited(NETWORK, ["pipes", 0, "flow_mni"], -10.0)),
    ],
    ids=[
        "length-string",
        "pipe-id-integer",
        "pressure-min-boolean",
        "mu-string",
        "mu-float",
        "initial-level-9",
        "flow-string",
        "status-number",
        "pipe-state-level-9",
        "pipe-state-stepsize-0",
        "arc-flows-miss-pipe",
        "pipe-states-miss-pipe",
        "run-scenario-unknown-node",
        "nlp-solve-scenario-unknown-node",
        "intervals-0",
        "simulate-h-0",
        "simulate-length-0",
        "length-nan",
        "pressure-max-infinity",
        "node-elevaton",
        "flow-mni",
    ],
)
def test_cli_invalid_input_exits_one(argv, content, chain5_files, tmp_path, capsys):
    _exits_one(argv, content, chain5_files, tmp_path, capsys)


def test_cli_estimate_accepts_well_formed_solution(chain5_files, tmp_path, capsys):
    # the base document of the solution cases above is itself accepted
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(SOLUTION))
    code = cli_main(
        ["estimate", "--network", chain5_files[0], "--solution", str(path)]
    )
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_cli_nlp_solve_and_estimate(chain5_files, tmp_path, capsys):
    net_path, scn_path = chain5_files
    sol_path = str(tmp_path / "sol.json")
    code = cli_main(
        [
            "nlp-solve",
            "--network", net_path,
            "--scenario", scn_path,
            "--level", "3",
            "--intervals", "8",
            "--out", sol_path,
        ]
    )
    assert code == 0
    doc = json.loads(open(sol_path).read())
    assert doc["format_version"] == 1
    assert doc["status"] == "LocalOptimum"

    code = cli_main(["estimate", "--network", net_path, "--solution", sol_path])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == fileio.ESTIMATE_COLUMNS
    assert [r[0] for r in rows[1:]] == ["p1", "p2", "p3", "p4", "p5"]


def test_cli_nlp_solve_infeasible_exits_two(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "units": "bar",
        "nodes": [
            {"id": "a", "kind": "entry", "pressure_min": 50, "pressure_max": 50},
            {"id": "b", "kind": "exit", "pressure_min": 49.9, "pressure_max": 100},
        ],
        "pipes": [
            {"id": "p", "from": "a", "to": "b", "length": 50000.0,
             "diameter": 0.3, "friction": 0.012},
        ],
    }
    net_path = tmp_path / "net.json"
    scn_path = tmp_path / "scn.json"
    net_path.write_text(json.dumps(doc))
    scn_path.write_text(json.dumps({"format_version": 1,
                                    "flows": {"a": -40.0, "b": 40.0}}))
    code = cli_main(
        ["nlp-solve", "--network", str(net_path), "--scenario", str(scn_path)]
    )
    assert code == 2


def test_cli_run_writes_artifacts(chain5_files, tmp_path, capsys):
    # a loose tolerance keeps this an artifact-plumbing test, not a benchmark
    net_path, scn_path = chain5_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"eps_bar": 0.1}))
    out_dir = tmp_path / "artifacts"
    code = cli_main(
        [
            "run",
            "--network", net_path,
            "--scenario", scn_path,
            "--config", str(cfg_path),
            "--out", str(out_dir),
            "--quiet",
        ]
    )
    assert code == 0
    solution = json.loads((out_dir / "solution.json").read_text())
    assert solution["status"] == "LocalOptimum"
    assert set(solution["pipe_states"]) == {"p1", "p2", "p3", "p4", "p5"}
    with open(out_dir / "trace.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == fileio.TRACE_COLUMNS and len(rows) >= 2
    with open(out_dir / "estimates.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [r[0] for r in rows[1:]] == ["p1", "p2", "p3", "p4", "p5"]

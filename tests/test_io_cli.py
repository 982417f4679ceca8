"""File formats, artifact export, and the command-line interface."""

import copy
import csv
import io
import json
import re

import pytest

from gasadapt import fileio, network, nlp
from gasadapt.cli import main as cli_main
from gasadapt.controller import AdaptiveConfig, AdaptiveState, TraceRecord, run
from gasadapt.errors import InfeasibleProblem, ParseError, ValidationError
from gasadapt.estimators import ErrorEstimate
from gasadapt.fixtures import (
    chain5_network_dict,
    chain5_scenario_dict,
    tree12_network_dict,
    tree12_scenario_dict,
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


def test_cli_run_checks_the_network_once(tmp_path, monkeypatch):
    # the network is checked where it is built, and each of the 14 NLPs that
    # the tree-12 run assembles checks only the scenario against it
    checks, assembles = [], []
    structural_problems, assemble = network._structural_problems, nlp.assemble

    def counting_problems(net):
        checks.append(net)
        return structural_problems(net)

    def counting_assemble(*args):
        assembles.append(args)
        return assemble(*args)

    monkeypatch.setattr(network, "_structural_problems", counting_problems)
    monkeypatch.setattr(nlp, "assemble", counting_assemble)
    net_path, scn_path = tmp_path / "net.json", tmp_path / "scn.json"
    net_path.write_text(json.dumps(tree12_network_dict()))
    scn_path.write_text(json.dumps(tree12_scenario_dict()))
    argv = ["run", "--network", str(net_path), "--scenario", str(scn_path)]
    assert cli_main([*argv, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert (len(checks), len(assembles)) == (1, 14)


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        fileio.load_network(path)


def test_config_from_dict_eps_bar():
    config = fileio.config_from_dict({"eps_bar": 1e-4, "mu": 6})
    assert config.eps == pytest.approx(10.0)
    assert config.mu == 6


def test_config_with_eps_and_eps_bar_is_parse_error():
    with pytest.raises(ParseError, match="one of 'eps' and 'eps_bar'"):
        fileio.config_from_dict({"eps": 10.0, "eps_bar": 1e-3})


def test_config_bad_value_is_parse_error():
    with pytest.raises(ParseError):
        fileio.config_from_dict({"tau": 0.5})


@pytest.mark.parametrize(
    "doc",
    [
        {"thetad": 0.5},  # misspelled theta_d
        {"adaptive_eps_opt": True},  # removed, never implemented
        {"split_tolerance": True},  # removed, moved the stop by eps_opt Pa
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
        pipe_states={"p": (ModelLevel.GRAVITY, 250.0)},
    )
    path = tmp_path / "sol.json"
    fileio.save_solution(sol, path)
    loaded = fileio.load_solution(path)
    assert loaded.node_pressures == sol.node_pressures
    assert loaded.arc_flows == sol.arc_flows
    assert list(loaded.interior_pressures["p"]) == [49e5, 48e5]
    assert loaded.pipe_states == sol.pipe_states


def test_solution_reason_round_trip(tmp_path):
    from gasadapt.nlp import NlpSolution

    sol = NlpSolution(
        status="IterationLimit",
        objective=1.5,
        node_pressures={"a": 50e5},
        arc_flows={},
        compressor_lifts={},
        interior_pressures={},
        kkt_error=1.0,
        n_iterations=500,
        pipe_states={},
        reason="iteration limit reached",
    )
    path = tmp_path / "sol.json"
    fileio.save_solution(sol, path)
    assert fileio.load_solution(path).reason == "iteration limit reached"
    # files written before the reason existed load with an empty one
    doc = fileio.solution_to_dict(sol)
    del doc["reason"]
    path.write_text(json.dumps(doc))
    assert fileio.load_solution(path).reason == ""


def test_solution_file_is_one_line_and_round_trips_every_float(tmp_path):
    # an adaptive run's solution, written compact with sorted keys: each of
    # its floats, with their 17 significant digits, reads back bit for bit
    import numpy as np

    from gasadapt.fixtures import chain5

    net, gas, scn = chain5()
    sol, state = run(net, scn, gas, AdaptiveConfig())
    path = tmp_path / "sol.json"
    fileio.save_solution(sol, path)
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    loaded = fileio.load_solution(path)
    # the grid of the last solve, which the run ends on
    states = {pid: (state.levels[pid], state.stepsizes[pid]) for pid in net.pipes}
    assert loaded.pipe_states == sol.pipe_states == states
    for name in ("node_pressures", "arc_flows", "compressor_lifts"):
        assert getattr(loaded, name) == getattr(sol, name)
    assert loaded.interior_pressures.keys() == sol.interior_pressures.keys()
    for pid, values in sol.interior_pressures.items():
        got = loaded.interior_pressures[pid]
        assert got.dtype == values.dtype == np.float64
        assert got.tobytes() == values.tobytes()
    assert (loaded.objective, loaded.kkt_error) == (sol.objective, sol.kkt_error)


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


def test_cli_simulate_slope_within_the_network_file_bound(capsys):
    # |slope| < 1, the bound of network files; at -5 the profile climbed to
    # 2.25e11 Pa, and that is a usage error now
    code = cli_main(["simulate", "--level", "2", "--slope", "-0.5", "--h", "2500"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    pressures = [float(r[1]) for r in rows]
    assert len(pressures) == 5
    assert all(a < b < 2.0 * pressures[0] for a, b in zip(pressures, pressures[1:]))


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


def _with_literal(doc, path, literal):
    """The JSON text of `doc` with the value at the key `path` written as
    the number literal `literal`, which Python's JSON writer cannot emit."""
    return _edited(doc, path, "@").replace('"@"', literal)


def _appended(doc, key, index, **changes):
    """The JSON text of `doc` with a copy of entry `index` of the list under
    `key`, its id kept and `changes` applied, appended to that list."""
    return _edited(doc, [key], doc[key] + [{**doc[key][index], **changes}])


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
INTERIOR = {**SOLUTION, "interior_pressures": {"p1": [50e5, 50e5, 50e5]}}
CHECK_NETWORK = ["validate-params", "--network", "BAD"]
SOLVE_SCENARIO = ["nlp-solve", "--network", "NET", "--scenario", "BAD"]
SOLVE_NETWORK = ["nlp-solve", "--network", "BAD", "--scenario", "SCN"]
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
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


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
        (RUN_CONFIG, '{"eps_opt": 0}'),
        (RUN_CONFIG, '{"eps_opt": -1}'),
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
        (CHECK_NETWORK, _edited(NETWORK, ["pipes", 0, "length"], float("nan"))),
        (CHECK_NETWORK, _edited(NETWORK, ["nodes", 1, "pressure_max"], float("inf"))),
        (CHECK_NETWORK, _edited(NETWORK, ["nodes", 1, "elevaton"], 120.0)),
        (CHECK_NETWORK, _edited(NETWORK, ["pipes", 0, "flow_mni"], -10.0)),
        (CHECK_NETWORK, _edited(NETWORK, ["pipes", 0, "cross_area"], 0.2827)),
        (RUN_CONFIG, '{"eps_opt": 1e400}'),
        (SOLVE_NETWORK, _with_literal(NETWORK, ["pipes", 0, "length"], "1e400")),
        (SOLVE_NETWORK, _with_literal(NETWORK, ["pipes", 0, "length"], "9" * 400)),
        (RUN_CONFIG, '{"max_outer_iterations": -3}'),
        (CHECK_NETWORK, _appended(NETWORK, "nodes", 1, elevation=10.0)),
        (CHECK_NETWORK, _appended(NETWORK, "pipes", 4, length=16000.0)),
        (CHECK_NETWORK, _appended(NETWORK, "compressors", 0, lift_max=20.0)),
        (RUN_CONFIG, '{"mu": 4, "mu": 8}'),
        (SOLVE_SCENARIO, '{"flows": {"entry": -55, "exit": 40, "exit": 55}}'),
        (ESTIMATE, _edited(INTERIOR, ["interior_pressures", "p1", 1], "50e5")),
        (ESTIMATE, _edited(INTERIOR, ["interior_pressures", "p1", 1], True)),
        (ESTIMATE, _with_literal(INTERIOR, ["interior_pressures", "p1", 1], "1e400")),
        (ESTIMATE, _with_literal(INTERIOR, ["interior_pressures", "p1", 1], "9" * 400)),
    ],
    ids=[
        "length-string",
        "pipe-id-integer",
        "pressure-min-boolean",
        "mu-string",
        "mu-float",
        "initial-level-9",
        "eps-opt-0",
        "eps-opt-negative",
        "flow-string",
        "status-number",
        "pipe-state-level-9",
        "pipe-state-stepsize-0",
        "arc-flows-miss-pipe",
        "pipe-states-miss-pipe",
        "run-scenario-unknown-node",
        "nlp-solve-scenario-unknown-node",
        "intervals-0",
        "length-nan",
        "pressure-max-infinity",
        "node-elevaton",
        "flow-mni",
        "pipe-cross-area",
        "eps-opt-1e400",
        "length-1e400",
        "length-400-digits",
        "max-outer-iterations-negative",
        "node-id-repeated",
        "pipe-id-repeated",
        "compressor-id-repeated",
        "config-key-repeated",
        "scenario-key-repeated",
        "interior-pressure-string",
        "interior-pressure-boolean",
        "interior-pressure-1e400",
        "interior-pressure-400-digits",
    ],
)
def test_cli_invalid_input_exits_one(argv, content, chain5_files, tmp_path, capsys):
    _exits_one(argv, content, chain5_files, tmp_path, capsys)


def test_cli_estimate_needs_the_grid_of_the_solution(chain5_files, tmp_path, capsys):
    # the estimators are defined against each pipe's level and stepsize, so a
    # solution without them is an error that names the field, not a guess
    content = _edited(SOLUTION, ["pipe_states"], None)
    err = _exits_one(ESTIMATE, content, chain5_files, tmp_path, capsys)
    assert "missing required field 'pipe_states'" in err


SOLVE = ["nlp-solve", "--network", "NET", "--scenario", "SCN"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (SOLVE + ["--level", "4"], 1),
        (["simulate", "--q", "abc"], 1),
        (["validate-params", "--n-pipes", "0"], 1),
        (["validate-params", "--n-pipes", "-5"], 1),
        (["validate-params", "--n-pipes", "x"], 1),
        (SOLVE + ["--eps-opt", "0"], 1),
        (SOLVE + ["--eps-opt", "-1"], 1),
        (SOLVE + ["--eps-opt", "nan"], 1),
        (SOLVE + ["--eps-opt", "inf"], 1),
        (["simulate", "--h", "0"], 1),
        (["simulate", "--length", "0"], 1),
        (["simulate", "--length", "nan"], 1),
        (["simulate", "--diameter", "0"], 1),
        (["simulate", "--friction", "-0.01"], 1),
        (["simulate", "--p0", "nan"], 1),
        (["simulate", "--q", "nan"], 1),
        (["simulate", "--q", "inf"], 1),
        (["simulate", "--level", "2", "--slope", "nan"], 1),
        (["simulate", "--level", "2", "--slope", "-5"], 1),
        (["simulate", "--level", "2", "--slope", "1"], 1),
        (["simulate", "--level", "2", "--slope", "-inf"], 1),
        (["simulate", "--level", "2", "--slope", "x"], 1),
        ([], 1),
        (["--help"], 0),
        (["nlp-solve", "--help"], 0),
        (["estimate", "--network", "NET", "--solution", "SCN", "--level", "2"], 1),
    ],
    ids=[
        "level-4",
        "q-not-a-number",
        "n-pipes-0",
        "n-pipes-negative",
        "n-pipes-not-a-number",
        "eps-opt-0",
        "eps-opt-negative",
        "eps-opt-nan",
        "eps-opt-infinity",
        "simulate-h-0",
        "simulate-length-0",
        "simulate-length-nan",
        "simulate-diameter-0",
        "simulate-friction-negative",
        "simulate-p0-nan",
        "simulate-q-nan",
        "simulate-q-infinity",
        "simulate-slope-nan",
        "simulate-slope-minus-5",
        "simulate-slope-1",
        "simulate-slope-minus-infinity",
        "simulate-slope-not-a-number",
        "no-command",
        "help",
        "subcommand-help",
        "estimate-level",
    ],
)
def test_cli_usage_errors_exit_one(argv, code, chain5_files, capsys):
    # exit code 2 is reserved for an infeasible problem
    names = {"NET": chain5_files[0], "SCN": chain5_files[1]}
    with pytest.raises(SystemExit) as exit_info:
        cli_main([names.get(arg, arg) for arg in argv])
    assert exit_info.value.code == code
    if code:
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "load, doc, record",
    [
        (fileio.load_network, NETWORK, "network"),
        (fileio.load_scenario, chain5_scenario_dict(), "scenario"),
        (fileio.load_config, {"mu": 6}, "config"),
        (fileio.load_solution, SOLUTION, "solution"),
    ],
    ids=["network", "scenario", "config", "solution"],
)
def test_format_version_other_than_1_is_parse_error(load, doc, record, tmp_path):
    path = tmp_path / "doc.json"
    bare = {key: value for key, value in doc.items() if key != "format_version"}
    for loadable in (bare, {**bare, "format_version": 1}):
        path.write_text(json.dumps(loadable))
        load(path)
    for version in ("two", 99, 1.0, True):
        path.write_text(json.dumps({**bare, "format_version": version}))
        with pytest.raises(ParseError, match=f"^{record}: format_version "):
            load(path)


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
    with open(sol_path) as handle:
        doc = json.load(handle)
    assert doc["format_version"] == 1
    assert doc["status"] == "LocalOptimum"

    code = cli_main(["estimate", "--network", net_path, "--solution", sol_path])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == fileio.ESTIMATE_COLUMNS
    assert [r[0] for r in rows[1:]] == ["p1", "p2", "p3", "p4", "p5"]
    # at the grid the solution names, the one nlp-solve solved on
    lengths = {p["id"]: p["length"] for p in NETWORK["pipes"]}
    for pid, level, stepsize, *_ in rows[1:]:
        assert (level, float(stepsize)) == ("3", lengths[pid] / 8)


@pytest.fixture
def infeasible_files(tmp_path):
    """One pipe whose 0.1 bar pressure drop cannot carry its 40 kg/s."""
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
    return str(net_path), str(scn_path)


def test_cli_nlp_solve_infeasible_exits_two(infeasible_files, capsys):
    net_path, scn_path = infeasible_files
    code = cli_main(["nlp-solve", "--network", net_path, "--scenario", scn_path])
    assert code == 2


def test_cli_run_infeasible_exits_two(infeasible_files, tmp_path, capsys):
    net_path, scn_path = infeasible_files
    code = cli_main(
        ["run", "--network", net_path, "--scenario", scn_path,
         "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: NLP infeasible at solve 0: ")


@pytest.mark.parametrize("scale", [2.08, 2.09])
def test_demand_probe_ends_infeasible(scale, tmp_path, capsys):
    # tree-12 with every boundary flow scaled: the start model is feasible,
    # but after the first switch-up round t01 and t02 climb with gravity
    # while the downhill t03 has none, and exit_a cannot reach 40 bar. The
    # run says so, InfeasibleProblem and exit 2, rather than take the huge
    # but backward-stable Newton steps there for a failed factorization
    doc = tree12_scenario_dict()
    doc["flows"] = {node: flow * scale for node, flow in doc["flows"].items()}
    net, gas = fileio.network_from_dict(tree12_network_dict())
    scn = fileio.scenario_from_dict(doc)
    with pytest.raises(InfeasibleProblem, match="^NLP infeasible at solve 1: "):
        run(net, scn, gas, AdaptiveConfig())
    net_path, scn_path = tmp_path / "net.json", tmp_path / "scn.json"
    net_path.write_text(json.dumps(tree12_network_dict()))
    scn_path.write_text(json.dumps(doc))
    code = cli_main(
        ["run", "--network", str(net_path), "--scenario", str(scn_path),
         "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("infeasible: NLP infeasible at solve 1: ")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: the default start grid is too coarse for the pipe, "
    "and the run ends in SonicFlow (A) or a stalled InfeasibleProblem (B, C)",
)
@pytest.mark.parametrize(
    "diameter, length, flow",
    [(0.2, 10000.0, 20.0), (0.3, 20000.0, 40.0), (0.5, 20000.0, 150.0)],
    ids=["A", "B", "C"],
)
def test_single_pipe_probe_ends_eps_feasible(diameter, length, flow, tmp_path):
    # a level-1 march at n = 65,536 ends at 30.27, 27.82 and 22.40 bar, well
    # inside the exit's bounds
    doc = {
        "format_version": 1,
        "units": "bar",
        "nodes": [
            {"id": "in", "kind": "entry", "pressure_min": 60.0,
             "pressure_max": 60.0},
            {"id": "out", "kind": "exit", "pressure_min": 1.0,
             "pressure_max": 100.0},
        ],
        "pipes": [{"id": "p", "from": "in", "to": "out", "length": length,
                   "diameter": diameter, "friction": 0.01}],
    }
    net_path, scn_path = tmp_path / "net.json", tmp_path / "scn.json"
    net_path.write_text(json.dumps(doc))
    scn_path.write_text(json.dumps({"flows": {"in": -flow, "out": flow}}))
    code = cli_main(
        ["run", "--network", str(net_path), "--scenario", str(scn_path),
         "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == 0


def test_cli_run_without_outer_iterations_exits_one(chain5_files, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"max_outer_iterations": 0}))
    code = cli_main(
        ["run", "--network", chain5_files[0], "--scenario", chain5_files[1],
         "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: no eps-feasible solution within 0 outer iterations\n"


@pytest.mark.parametrize("command", ["nlp-solve", "run"])
def test_cli_factorization_failure_names_its_reason(
    command, chain5_files, tmp_path, capsys, monkeypatch
):
    from gasadapt import nlp

    def failing_splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(nlp.spla, "splu", failing_splu)
    net_path, scn_path = chain5_files
    out = str(tmp_path / "out")
    code = cli_main(
        [command, "--network", net_path, "--scenario", scn_path, "--out", out]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert nlp.REASON_FACTORIZATION in err


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


def test_cli_run_prints_one_progress_line_per_trace_row(
    chain5_files, tmp_path, capsys
):
    net_path, scn_path = chain5_files
    out_dir = tmp_path / "artifacts"
    code = cli_main(
        ["run", "--network", net_path, "--scenario", scn_path, "--out", str(out_dir)]
    )
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    progress = [
        re.fullmatch(
            r"solve (\d+): outer (\d+) inner (\d+) avg_eta (\S+) Pa "
            r"\(\+(\d+) refined, \+(\d+) up\)",
            line,
        )
        for line in lines
        if line.startswith("solve ")
    ]
    with open(out_dir / "trace.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) > 1 and len(progress) == len(rows)
    columns = ("solve_index", "outer_k", "inner_j")
    for match, row in zip(progress, rows):
        assert match is not None
        assert list(match.group(1, 2, 3)) == [row[c] for c in columns]
        assert match[4] == format(float(row["avg_eta"]), ".6g")
        assert list(match.group(5, 6)) == [row["n_refined"], row["n_switched_up"]]
    assert lines[-1].startswith(f"eps-feasible after {len(rows)} solves; ")

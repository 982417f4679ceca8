"""Network data model, its validation at construction, the scenario check,
and mass balance."""

import math
from functools import partial

import pytest
from hypothesis import given, strategies as st

from gasadapt.errors import ValidationError
from gasadapt.fixtures import chain5, tree12
from gasadapt.network import (
    Compressor,
    Network,
    Node,
    Pipe,
    Scenario,
    nikuradse_friction,
    slope_of,
    validate_scenario,
)

from oracles import mass_balance_residual


def _node(nid, kind="inner", pmin=1e5, pmax=1e7, elevation=0.0):
    return Node(nid, kind, pmin, pmax, elevation)


def _pipe(pid, a, b, **kw):
    defaults = dict(length=1000.0, diameter=0.5, friction=0.01)
    defaults.update(kw)
    return Pipe(pid, a, b, **defaults)


def _two_node_net(**pipe_kw):
    return Network(
        [_node("a", "entry"), _node("b", "exit")], [_pipe("p", "a", "b", **pipe_kw)]
    )


def test_cross_area_derived_from_diameter():
    pipe = _pipe("p", "a", "b", diameter=0.6)
    assert pipe.cross_area == pytest.approx(math.pi * 0.36 / 4.0, rel=1e-12)


def test_nikuradse_friction_value():
    assert nikuradse_friction(0.6, 1e-4) == pytest.approx(
        (2.0 * math.log10(0.6 / 1e-4) + 1.138) ** -2, rel=1e-12
    )


def test_slope_explicit_wins_over_elevation():
    net = Network(
        [_node("a", elevation=0.0), _node("b", elevation=100.0)],
        [_pipe("p", "a", "b", slope=0.02)],
    )
    assert slope_of(net.pipes["p"], net) == 0.02


def test_slope_derived_from_elevations():
    net = Network(
        [_node("a", elevation=0.0), _node("b", elevation=100.0)],
        [_pipe("p", "a", "b", length=10000.0)],
    )
    assert slope_of(net.pipes["p"], net) == pytest.approx(0.01)


def test_mass_balance_residual_zero_when_balanced():
    net = _two_node_net()
    scn = Scenario({"a": -5.0, "b": 5.0})
    residual = mass_balance_residual(net, scn, {"p": 5.0})
    assert all(abs(v) < 1e-12 for v in residual.values())


@given(
    q1=st.floats(-100, 100),
    q2=st.floats(-100, 100),
    b1=st.floats(-100, 100),
    b2=st.floats(-100, 100),
)
def test_mass_balance_residual_linear_in_flows(q1, q2, b1, b2):
    net = _two_node_net()
    r1 = mass_balance_residual(net, Scenario({"a": b1}), {"p": q1})
    r2 = mass_balance_residual(net, Scenario({"a": b2}), {"p": q2})
    r12 = mass_balance_residual(net, Scenario({"a": b1 + b2}), {"p": q1 + q2})
    for nid in net.nodes:
        assert r12[nid] == pytest.approx(r1[nid] + r2[nid], abs=1e-9)


def test_validate_clean_network():
    # raises at construction on any problem
    _two_node_net()


def test_validate_fixtures_are_clean():
    for fixture in (chain5, tree12):
        net, _, scn = fixture()
        validate_scenario(net, scn)


def test_validate_unknown_kind():
    with pytest.raises(ValidationError, match="unknown kind"):
        Network([_node("a", kind="blend"), _node("b", "exit")], [_pipe("p", "a", "b")])


def test_validate_inverted_pressure_bounds():
    with pytest.raises(ValidationError, match="inverted"):
        Network(
            [_node("a", "entry", pmin=8e6, pmax=5e6), _node("b", "exit")],
            [_pipe("p", "a", "b")],
        )


def test_validate_dangling_endpoint():
    with pytest.raises(ValidationError, match="dangling endpoint"):
        Network([_node("a", "entry"), _node("b", "exit")], [_pipe("p", "a", "ghost")])


def test_validate_duplicate_arc_id():
    # a pipe and a compressor share the arc ids
    with pytest.raises(ValidationError, match="arc p: duplicate id"):
        Network(
            [_node("a", "entry"), _node("b", "exit")],
            [_pipe("p", "a", "b")],
            [Compressor("p", "a", "b", lift_max=1e5, cost_coeff=1.0)],
        )


@pytest.mark.parametrize(
    "node_ids, pipe_ids, message",
    [
        ("aba", "p", "node a: duplicate id"),
        ("ab", "pp", "arc p: duplicate id"),
    ],
    ids=["node", "pipe"],
)
def test_network_rejects_a_repeated_id(node_ids, pipe_ids, message):
    # kept by id, the later record would replace the earlier one unseen
    nodes = [_node(nid) for nid in node_ids]
    pipes = [_pipe(pid, "a", "b") for pid in pipe_ids]
    with pytest.raises(ValidationError, match=message):
        Network(nodes, pipes)


@pytest.mark.parametrize(
    "pipes, compressors",
    [
        ([_pipe("p", "a", "b"), _pipe("x", "b", "b")], []),
        (
            [_pipe("p", "a", "b")],
            [Compressor("x", "b", "b", lift_max=1e5, cost_coeff=1.0)],
        ),
    ],
    ids=["pipe", "compressor"],
)
def test_network_rejects_an_arc_from_a_node_to_itself(pipes, compressors):
    # unchecked, a pipe b -> b solves with 0 kg/s in it, and a compressor
    # b -> b has its lift pinned at 0
    with pytest.raises(ValidationError) as raised:
        Network([_node("a", "entry"), _node("b", "exit")], pipes, compressors)
    assert raised.value.problems == ["arc x: joins node 'b' to itself"]


def test_validate_geometry():
    with pytest.raises(ValidationError, match="non-positive length"):
        _two_node_net(length=-1.0)
    with pytest.raises(ValidationError, match="slope magnitude"):
        _two_node_net(slope=1.5)


@pytest.mark.parametrize("rise, valid", [(99.0, True), (100.0, False), (-500.0, False)])
def test_validate_slope_derived_from_elevations(rise, valid):
    # checked as a given slope is: 100 m of pipe rising `rise` m
    nodes = [_node("a", "entry"), _node("b", "exit", elevation=rise)]
    pipes = [_pipe("p", "a", "b", length=100.0)]
    if valid:
        Network(nodes, pipes)
    else:
        with pytest.raises(ValidationError) as raised:
            Network(nodes, pipes)
        assert raised.value.problems == ["pipe p: slope magnitude >= 1"]


def _compressor_net(**comp_kw):
    comp = dict(lift_max=1e5, cost_coeff=1.0)
    comp.update(comp_kw)
    return Network(
        [_node("a", "entry"), _node("b", "exit")],
        [],
        [Compressor("c", "a", "b", **comp)],
    )


def _pipeless_net(**entry_kw):
    return Network([_node("a", "entry", **entry_kw), _node("b", "exit")], [])


NAN = float("nan")


@pytest.mark.parametrize(
    "net, problem",
    [
        (partial(_two_node_net, length=NAN), "pipe p: length nan is not finite"),
        (partial(_two_node_net, diameter=NAN), "pipe p: diameter nan is not finite"),
        (
            partial(_two_node_net, diameter=math.inf),
            "pipe p: diameter inf is not finite",
        ),
        (partial(_two_node_net, friction=NAN), "pipe p: friction nan is not finite"),
        (partial(_two_node_net, slope=NAN), "pipe p: slope nan is not finite"),
        (partial(_two_node_net, flow_max=NAN), "pipe p: flow_max nan is not finite"),
        (partial(_two_node_net, length=math.inf), "pipe p: length inf is not finite"),
        (
            partial(_two_node_net, friction=math.inf),
            "pipe p: friction inf is not finite",
        ),
        (partial(_two_node_net, slope=-math.inf), "pipe p: slope -inf is not finite"),
        (partial(_pipeless_net, elevation=NAN), "node a: elevation nan is not finite"),
        (
            partial(_pipeless_net, elevation=math.inf),
            "node a: elevation inf is not finite",
        ),
        (partial(_pipeless_net, pmax=NAN), "node a: pressure_max nan is not finite"),
        (
            partial(_compressor_net, lift_max=NAN),
            "compressor c: lift_max nan is not finite",
        ),
        (
            partial(_compressor_net, cost_coeff=NAN),
            "compressor c: cost_coeff nan is not finite",
        ),
    ],
)
def test_validate_reports_each_non_finite_number(net, problem):
    # each network is built inside the test, where it raises
    with pytest.raises(ValidationError) as raised:
        net()
    assert problem in raised.value.problems


def test_validate_keeps_infinite_bounds_as_no_bound():
    # raises at construction on any problem
    Network(
        [_node("a", "entry", pmax=math.inf), _node("b", "exit")],
        [_pipe("p", "a", "b", flow_min=-math.inf, flow_max=math.inf)],
        [Compressor("c", "b", "a", lift_max=math.inf, cost_coeff=1.0)],
    )


@pytest.mark.parametrize(
    "net, problem",
    [
        (
            partial(_pipeless_net, pmin=math.inf, pmax=math.inf),
            "node a: pressure bounds admit no finite value",
        ),
        (
            partial(_two_node_net, flow_min=-math.inf, flow_max=-math.inf),
            "arc p: flow bounds admit no finite value",
        ),
        (
            partial(_compressor_net, flow_min=math.inf, flow_max=math.inf),
            "arc c: flow bounds admit no finite value",
        ),
    ],
    ids=["node", "pipe", "compressor"],
)
def test_validate_rejects_bounds_that_admit_no_finite_value(net, problem):
    # two equal infinities pass the order checks, but no finite value lies
    # between them
    with pytest.raises(ValidationError) as raised:
        net()
    assert raised.value.problems == [problem]


def test_validate_disconnected():
    with pytest.raises(ValidationError, match="not connected"):
        Network(
            [_node("a", "entry"), _node("b", "exit"), _node("c"), _node("d")],
            [_pipe("p", "a", "b"), _pipe("q", "c", "d")],
        )


def _scenario_problems(flows):
    with pytest.raises(ValidationError) as raised:
        validate_scenario(_two_node_net(), Scenario(flows))
    return raised.value.problems


def test_validate_scenario_signs():
    problems = _scenario_problems({"a": 5.0, "b": -5.0})
    assert any("positive flow" in p for p in problems)
    assert any("negative flow" in p for p in problems)


def test_validate_scenario_global_imbalance():
    problems = _scenario_problems({"a": -5.0, "b": 4.0})
    assert any("global imbalance" in p for p in problems)


@pytest.mark.parametrize("value", [NAN, math.inf, -math.inf])
def test_validate_scenario_rejects_a_flow_that_is_not_finite(value):
    # NaN fails every sign check, and -inf + inf leaves a NaN imbalance that
    # no tolerance check catches
    problems = _scenario_problems({"a": -value, "b": value})
    assert f"scenario: flow {-value} at node a is not finite" in problems
    assert f"scenario: flow {value} at node b is not finite" in problems


def test_validate_scenario_unknown_node():
    problems = _scenario_problems({"zzz": 1.0, "a": -1.0, "b": 1.0})
    assert any("unknown node" in p for p in problems)


def test_network_lists_every_problem_in_one_order():
    # records by kind, each record's checks in turn, then connectivity,
    # which is checked only on a network without other problems
    with pytest.raises(ValidationError) as raised:
        Network(
            [_node("a", "entry", pmin=8e6, pmax=5e6), _node("b", "blend")],
            [
                _pipe("p", "a", "ghost", length=-1.0, friction=NAN),
                _pipe("q", "b", "a", slope=1.5),
            ],
            [Compressor("c", "a", "b", lift_max=-1.0, cost_coeff=-1.0)],
        )
    assert raised.value.problems == [
        "pipe p: friction nan is not finite",
        "node a: pressure bounds inverted or non-positive [8000000.0, 5000000.0]",
        "node b: unknown kind 'blend'",
        "arc p: dangling endpoint 'ghost'",
        "pipe p: non-positive length",
        "pipe q: slope magnitude >= 1",
        "compressor c: negative lift_max",
        "compressor c: negative cost coefficient",
    ]

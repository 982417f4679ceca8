"""Greedy bulk marking strategies, checked against exhaustive enumeration."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from gasadapt.controller import (
    mark_coarsen,
    mark_refine,
    mark_switch_down,
    mark_switch_up,
    switch_up_target,
)
from gasadapt.models import ModelLevel


# -- exhaustive oracles -------------------------------------------------------


def min_cardinality_reaching(values: dict, target: float) -> int:
    """Smallest subset size whose sum reaches the target."""
    ids = list(values)
    for k in range(len(ids) + 1):
        for combo in combinations(ids, k):
            if sum(values[i] for i in combo) >= target:
                return k
    raise AssertionError("target unreachable")


def max_cardinality_within(values: dict, ids, budget: float) -> int:
    """Largest subset of `ids` whose sum stays within the budget."""
    ids = list(ids)
    for k in range(len(ids), -1, -1):
        for combo in combinations(ids, k):
            if sum(values[i] for i in combo) <= budget:
                return k
    return 0


# integer-valued floats keep subset sums exact, so greedy and exhaustive
# enumeration agree bit-for-bit on every comparison
eta_vectors = st.lists(
    st.integers(0, 100).map(float), min_size=1, max_size=8
).map(lambda vs: {f"p{i}": v for i, v in enumerate(vs)})


# -- frozen worked examples ---------------------------------------------------


def test_refine_example():
    assert mark_refine({"a": 3.0, "b": 2.0, "c": 1.0}, 0.7) == {"a", "b"}


def test_switch_up_example():
    assert mark_switch_up({"a": 30.0, "b": 12.0, "c": 5.0}, 0.7, 10.0) == {"a"}


def test_coarsen_example():
    assert mark_coarsen({"a": 3.0, "b": 2.0, "c": 1.0}, 0.3) == {"c"}


def test_switch_down_example():
    assert mark_switch_down({"a": 2.0, "b": 5.0, "c": 50.0}, 0.3, 1.1, 10.0) == {"a"}


# -- property tests against the exhaustive oracles ----------------------------


@settings(max_examples=200, deadline=None)
@given(eta=eta_vectors, theta=st.floats(0.05, 0.95))
def test_refine_inequality_and_minimality(eta, theta):
    marked = mark_refine(eta, theta)
    target = theta * sum(eta.values())
    assert sum(eta[p] for p in marked) >= target
    assert len(marked) == min_cardinality_reaching(eta, target)


@settings(max_examples=200, deadline=None)
@given(eta=eta_vectors, theta=st.floats(0.05, 0.95), eps=st.floats(0.0, 50.0))
def test_switch_up_inequality_and_minimality(eta, theta, eps):
    marked = mark_switch_up(eta, theta, eps)
    eligible = {p: r for p, r in eta.items() if r > eps}
    assert marked <= set(eligible)
    target = theta * sum(eligible.values())
    assert sum(eligible[p] for p in marked) >= target
    assert len(marked) == min_cardinality_reaching(eligible, target)


@settings(max_examples=200, deadline=None)
@given(eta=eta_vectors, phi=st.floats(0.05, 0.95))
def test_coarsen_budget_and_maximality(eta, phi):
    marked = mark_coarsen(eta, phi)
    budget = phi * sum(eta.values())
    assert sum(eta[p] for p in marked) <= budget
    assert len(marked) == max_cardinality_within(eta, eta, budget)


@settings(max_examples=200, deadline=None)
@given(
    eta=eta_vectors,
    phi=st.floats(0.05, 0.95),
    tau=st.floats(1.0, 2.0),
    eps=st.floats(0.0, 50.0),
)
def test_switch_down_budget_and_maximality(eta, phi, tau, eps):
    marked = mark_switch_down(eta, phi, tau, eps)
    eligible = {p: v for p, v in eta.items() if v <= tau * eps}
    assert marked <= set(eligible)
    budget = phi * sum(eligible.values())
    assert sum(eligible[p] for p in marked) <= budget
    assert len(marked) == max_cardinality_within(eligible, eligible, budget)


def test_coarsen_budget_over_all_pipes_restricted_candidates():
    # candidates may be restricted (grid floor) but the budget stays global
    eta = {"a": 3.0, "b": 2.0, "c": 1.0}
    assert mark_coarsen(eta, 0.5, eligible={"b"}) == {"b"}
    assert mark_coarsen(eta, 0.1, eligible={"b"}) == set()


def test_marking_determinism():
    eta = {"a": 2.0, "b": 2.0, "c": 2.0}
    assert mark_refine(eta, 0.5) == mark_refine(dict(reversed(eta.items())), 0.5)


# -- switch-up target rule ----------------------------------------------------


def test_switch_up_target_one_level_when_reduction_large():
    eta_m = {ModelLevel.FRICTION: 100.0, ModelLevel.GRAVITY: 20.0, ModelLevel.FULL: 0.0}
    target = switch_up_target(ModelLevel.FRICTION, eta_m, 10.0)
    assert target == (ModelLevel.GRAVITY, 80.0)
    assert target[0] is ModelLevel.GRAVITY


def test_switch_up_target_jumps_to_full_when_reduction_small():
    eta_m = {ModelLevel.FRICTION: 100.0, ModelLevel.GRAVITY: 95.0, ModelLevel.FULL: 0.0}
    target = switch_up_target(ModelLevel.FRICTION, eta_m, 10.0)
    assert target == (ModelLevel.FULL, 100.0)
    assert target[0] is ModelLevel.FULL


def test_switch_up_target_full_is_fixed_point():
    target = switch_up_target(ModelLevel.FULL, {ModelLevel.FULL: 0.0}, 10.0)
    assert target == (ModelLevel.FULL, 0.0)
    assert target[0] is ModelLevel.FULL


@settings(max_examples=200, deadline=None)
@given(
    level=st.sampled_from(ModelLevel),
    eta_2=st.floats(0.0, 200.0),
    eta_3=st.floats(0.0, 200.0),
    eps=st.floats(0.0, 50.0),
)
def test_switch_up_target_rule_and_reduction(level, eta_2, eta_3, eps):
    eta_m = {ModelLevel.FULL: 0.0, ModelLevel.GRAVITY: eta_2, ModelLevel.FRICTION: eta_3}
    target, reduction = switch_up_target(level, eta_m, eps)
    one_step = level != ModelLevel.FULL and eta_m[level] - eta_m[level - 1] > eps
    assert target is ModelLevel.of(level - 1 if one_step else ModelLevel.FULL)
    assert reduction == eta_m[level] - eta_m[target]

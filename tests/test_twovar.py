"""Fixed-parameter route for arity-at-most-2 systems."""

from __future__ import annotations

import random

import pytest

from maxlin2 import (
    InstanceClassError,
    LinSystem,
    brute_force_min_falsified,
    evaluate,
    normalize,
    solve_below_W,
)
from maxlin2.twovar import _constraint_graph
from helpers import random_system, star_system, traced_peak


def _edge_set(graph):
    return {(e.u, e.v, e.weight, e.parity) for e in graph.edges}


def test_build_graph_example():
    system = LinSystem.build(2, [((0,), 0, 1), ((0, 1), 1, 2), ((0, 1), 0, 3)])
    graph = _constraint_graph(normalize(system))
    assert graph.num_vertices == 3
    assert _edge_set(graph) == {
        (0, 2, 1, 1),  # x1 = 0: x1 off the anchor's side
        (0, 1, 3, 0),  # x1 + x2 = 0
        (0, 1, 2, 1),  # x1 + x2 = 1
    }


def test_build_graph_empty_system():
    graph = _constraint_graph(LinSystem(0))
    assert graph.num_vertices == 1 and graph.edges == ()


def test_build_graph_rhs_one_unit():
    graph = _constraint_graph(LinSystem.build(1, [((0,), 1, 1)]))
    assert _edge_set(graph) == {(0, 1, 1, 0)}


def test_solve_below_W_rejects_high_arity():
    with pytest.raises(InstanceClassError):
        solve_below_W(LinSystem.build(3, [((0, 1, 2), 0, 1)]), 1)


def test_solve_below_W_rejects_a_negative_k():
    with pytest.raises(ValueError) as caught:
        solve_below_W(LinSystem.build(1, [((0,), 0, 1)]), -1)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "k must be >= 0, got -1"


def test_solve_below_W_contradictory_pair():
    system = LinSystem.build(1, [((0,), 0, 1), ((0,), 1, 1)])
    result = solve_below_W(system, 1)
    assert result is not None and result.falsified_weight == 1
    assert solve_below_W(system, 0) is None


def test_solve_below_W_consistent():
    system = LinSystem.build(2, [((0, 1), 1, 1), ((0,), 1, 1), ((1,), 0, 1)])
    result = solve_below_W(system, 0)
    assert result is not None
    assert result.falsified_weight == 0
    assert result.assignment == (1, 0)


def test_isolated_component_takes_coloring_as_is():
    # x1+x2=1 lives in a component without the anchor; the produced
    # coloring assigns (1, 0), and either orientation would satisfy it.
    system = LinSystem.build(2, [((0, 1), 1, 1)])
    result = solve_below_W(system, 0)
    assert result is not None
    assert result.falsified_weight == 0
    assert result.assignment == (1, 0)


def test_all_variables_on_far_side_gives_zero_assignment():
    # every variable pinned to 0 sits off the anchor's side
    system = LinSystem.build(2, [((0,), 0, 1), ((1,), 0, 1)])
    result = solve_below_W(system, 0)
    assert result is not None
    assert result.assignment == (0, 0)


def test_solve_below_W_counts_forced_contradictions():
    system = LinSystem.build(1, [((), 1, 2), ((0,), 0, 1)])
    assert solve_below_W(system, 1) is None
    result = solve_below_W(system, 2)
    assert result is not None and result.falsified_weight == 2


def test_graph_size_bound():
    # one edge per normalized equation and one anchor, whatever the weights
    rng = random.Random(0xBEEF)
    for _ in range(80):
        system = random_system(rng, max_vars=8, max_eqs=10, max_weight=3, max_arity=2)
        norm = normalize(system)
        graph = _constraint_graph(norm)
        assert graph.num_vertices == system.n + 1
        assert [e.weight for e in graph.edges] == list(norm.weights)


def test_weights_above_the_budget_do_not_change_the_answer():
    # No cut of value <= k holds an edge heavier than k, and the flow never
    # saturates one, so its capacity never decides the search.
    rng = random.Random(0x5EA)
    for _ in range(150):
        system = random_system(rng, max_vars=8, max_eqs=12, max_weight=9, max_arity=2)
        k = rng.randint(0, 6)
        heavy = LinSystem.from_columns(
            system.n,
            system.lhs,
            system.rhs,
            [w if w <= k else 10**9 for w in system.weights],
        )
        assert solve_below_W(heavy, k) == solve_below_W(system, k)


def test_decision_and_value_match_oracle():
    rng = random.Random(0xACE)
    for _ in range(150):
        system = random_system(rng, max_vars=7, max_eqs=9, max_weight=3, max_arity=2)
        k = rng.randint(0, 4)
        optimum = brute_force_min_falsified(system).falsified_weight
        result = solve_below_W(system, k)
        if optimum <= k:
            assert result is not None
            assert result.falsified_weight == optimum
            assert evaluate(system, result.assignment)[1] == optimum
        else:
            assert result is None


def test_solve_below_W_memory_follows_the_rows():
    star = star_system(10**6)
    result = solve_below_W(star, 1)
    assert result is not None and result.falsified_weight == 1
    assert result.assignment[5:] == (1,) * (10**6 - 5)
    assert traced_peak(lambda: solve_below_W(star, 1)) < 32 * 2**20

"""Fixed-parameter route for arity-at-most-2 systems."""

from __future__ import annotations

import random

import pytest

from maxlin2 import (
    Edge,
    Graph,
    InstanceClassError,
    LinSystem,
    SolveResult,
    brute_force_min_falsified,
    edge_bipartization,
    evaluate,
    falsified_indices,
    normalize,
    solve_below_W,
)
from maxlin2.twovar import _graph_columns
from helpers import random_system, star_system, traced_peak


def _old_graph(norm):
    """The constraint graph of a normalized system as a Graph: x + y = b is
    the edge xy of parity b, and x = b the edge from x to the anchor n of
    parity 1 - b."""
    anchor = norm.n
    edges = []
    for lhs, rhs, weight in zip(norm.lhs, norm.rhs, norm.weights):
        if len(lhs) == 2:
            edges.append(Edge(lhs[0], lhs[1], weight, rhs))
        else:
            edges.append(Edge(lhs[0], anchor, weight, 1 - rhs))
    return Graph(anchor + 1, tuple(edges))


def _edges(norm):
    """The builder's edges in row order, as (u, v, weight, parity) over the
    vertices 0..n, with the anchor as n."""
    us, vs, parity = _graph_columns(norm)
    return list(zip(us, vs, norm.weights, parity))


def test_build_graph_example():
    system = LinSystem.build(2, [((0,), 0, 1), ((0, 1), 1, 2), ((0, 1), 0, 3)])
    norm = normalize(system)
    # raw ends, no dense ids: the anchor is vertex n = 2
    assert _graph_columns(norm)[:2] == ([0, 0, 0], [2, 1, 1])
    assert set(_edges(norm)) == {
        (0, 2, 1, 1),  # x1 = 0: x1 off the anchor's side
        (0, 1, 3, 0),  # x1 + x2 = 0
        (0, 1, 2, 1),  # x1 + x2 = 1
    }


def test_build_graph_empty_system():
    # no row, or only constant rows, which normalize drops: no edge, and no
    # anchor end, whatever n is
    assert _graph_columns(LinSystem(0)) == ([], [], [])
    assert _graph_columns(normalize(LinSystem.build(3, [((), 1, 2), ((), 0, 1)]))) == ([], [], [])


def test_build_graph_rhs_one_unit():
    system = LinSystem.build(1, [((0,), 1, 1)])
    assert _graph_columns(system) == ([0], [1], [0])
    assert _edges(system) == [(0, 1, 1, 0)]


def _random_rows(rng: random.Random, n: int, m: int):
    """Arity <= 2 rows over n variables: unary and binary rows, repeats and
    opposing copies of earlier rows, and now and then a constant row."""
    rows = []
    for _ in range(m):
        pick = rng.random()
        if rows and pick < 0.3:
            lhs, rhs, _ = rng.choice(rows)
            rhs ^= pick < 0.15  # an opposing row, else a repeated one
        elif pick < 0.35:
            lhs, rhs = (), rng.randint(0, 1)
        else:
            lhs = tuple(sorted(rng.sample(range(n), rng.randint(1, min(2, n)))))
            rhs = rng.randint(0, 1)
        rows.append((lhs, rhs, rng.randint(1, 4)))
    return rows


def test_solve_below_W_matches_the_engine_on_an_edge_list():
    # Both adapters drive one engine: the columns give the same answer,
    # tie-breaks included, as edge_bipartization on the old edge list.
    rng = random.Random(0xC01)
    flip = bytes.maketrans(b"\0\1", b"\1\0")
    for _ in range(250):
        n = rng.randint(1, 12)
        system = LinSystem.build(n, _random_rows(rng, n, rng.randint(0, 3 * n)))
        norm = normalize(system)
        graph = _old_graph(norm)
        best = edge_bipartization(graph, sum(norm.weights))
        optimum = norm.forced_falsified + sum(graph.edges[j].weight for j in best.deleted_edges)
        for k in range(optimum + 2):
            budget = k - norm.forced_falsified
            expected = None
            bp = edge_bipartization(graph, budget) if budget >= 0 else None
            if bp is not None:
                side = bp.side if bp.side[n] else bp.side.translate(flip)
                assignment = tuple(side[:n])
                certificate = falsified_indices(system, assignment)
                weight = system.forced_falsified + sum(system.weights[j] for j in certificate)
                expected = SolveResult(assignment, weight, certificate)
            assert solve_below_W(system, k) == expected
            assert (expected is None) == (k < optimum)


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
    # one edge per normalized equation, whatever the weights; its ends are
    # raw vertices, a variable and then a variable or the anchor n
    rng = random.Random(0xBEEF)
    for _ in range(80):
        system = random_system(rng, max_vars=8, max_eqs=10, max_weight=3, max_arity=2)
        norm = normalize(system)
        us, vs, parity = _graph_columns(norm)
        graph = _old_graph(norm)
        assert _edges(norm) == [tuple(e) for e in graph.edges]
        assert len(us) == len(vs) == len(parity) == len(norm.lhs)
        assert all(u < v <= norm.n for u, v in zip(us, vs))


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

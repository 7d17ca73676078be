"""Edge bipartization: witnesses, signed and weighted engine vs. brute force."""

from __future__ import annotations

import hashlib
import random

import pytest

from maxlin2 import (
    Bipartition,
    CapacityError,
    Edge,
    Graph,
    GraphError,
    OddCycle,
    SearchStats,
    brute_force_bipartization,
    edge_bipartization,
    is_bipartite,
)
from helpers import min_weight_bipartization, random_graph, star_system, traced_peak


def _check_proper(graph: Graph, bp: Bipartition) -> None:
    for eid, e in enumerate(graph.edges):
        if eid not in bp.deleted_edges:
            assert bp.side[e.u] ^ bp.side[e.v] == e.parity


def triangle() -> Graph:
    return Graph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])


def test_self_loops_rejected():
    with pytest.raises(GraphError):
        Graph(2, (Edge(1, 1),))


def test_edge_parity_must_be_a_bit():
    with pytest.raises(GraphError):
        Graph(2, (Edge(0, 1, 1, 2),))


@pytest.mark.parametrize("edge, message", [
    (Edge(1, 1), "self-loop at vertex 1 is not allowed"),
    (Edge(0, 1, 0), "edge weight must be >= 1, got 0"),
    (Edge(0, 1, 1, 2), "edge parity must be 0 or 1, got 2"),
    (Edge(0, 2), "edge Edge(u=0, v=2, weight=1, parity=1) out of vertex range"),
])
def test_graph_checks_each_edge(edge, message):
    # an Edge is a plain value; the Graph that holds it is where it is checked
    with pytest.raises(GraphError) as caught:
        Graph(2, (Edge(0, 1), edge))
    assert str(caught.value) == message


def test_is_bipartite_even_cycle():
    g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    result = is_bipartite(g)
    assert isinstance(result, Bipartition)
    _check_proper(g, result)
    assert result.deleted_edges == frozenset()


def test_is_bipartite_triangle_witness():
    result = is_bipartite(triangle())
    assert isinstance(result, OddCycle)
    assert len(result.edges) == 3
    assert sorted(result.edges) == [0, 1, 2]


def test_is_bipartite_single_vertex():
    assert isinstance(is_bipartite(Graph(1)), Bipartition)


def _check_witnesses(rng: random.Random, *, max_edges: int, signed: bool) -> None:
    found = 0
    for _ in range(120):
        g = random_graph(rng, max_vertices=7, max_edges=max_edges, signed=signed)
        result = is_bipartite(g)
        if isinstance(result, Bipartition):
            _check_proper(g, result)
            continue
        found += 1
        assert sum(g.edges[eid].parity for eid in result.edges) % 2 == 1
        # consecutive witness edges must chain into a closed walk
        degree: dict[int, int] = {}
        for eid in result.edges:
            e = g.edges[eid]
            degree[e.u] = degree.get(e.u, 0) + 1
            degree[e.v] = degree.get(e.v, 0) + 1
        assert all(d % 2 == 0 for d in degree.values())
    assert found >= 20


def test_odd_cycle_witness_is_a_closed_odd_walk():
    # all parities are 1, so an odd parity sum is an odd length
    _check_witnesses(random.Random(31), max_edges=12, signed=False)


def test_signed_odd_cycle_witness_has_odd_parity_sum():
    _check_witnesses(random.Random(0x516), max_edges=10, signed=True)


def test_parity_zero_parallel_pair_is_a_conflict():
    g = Graph(2, (Edge(0, 1, 1, 0), Edge(0, 1, 3, 1)))
    result = is_bipartite(g)
    assert isinstance(result, OddCycle) and sorted(result.edges) == [0, 1]
    assert edge_bipartization(g, 0) is None
    result = edge_bipartization(g, 1)
    assert result is not None and result.deleted_edges == frozenset({0})
    assert result.side[0] != result.side[1]


def test_edge_bipartization_triangle():
    result = edge_bipartization(triangle(), 1)
    assert result is not None
    assert len(result.deleted_edges) == 1
    _check_proper(triangle(), result)
    assert edge_bipartization(triangle(), 0) is None


def test_edge_bipartization_square_needs_nothing():
    g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    result = edge_bipartization(g, 0)
    assert result is not None and result.deleted_edges == frozenset()


def test_edge_bipartization_k4():
    k4 = Graph.from_pairs(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert edge_bipartization(k4, 1) is None
    result = edge_bipartization(k4, 2)
    assert result is not None and len(result.deleted_edges) == 2
    _check_proper(k4, result)


def test_edge_bipartization_parallel_edges():
    g = Graph.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
    result = edge_bipartization(g, 0)
    assert result is not None and result.deleted_edges == frozenset()


def test_brute_force_examples():
    assert brute_force_bipartization(triangle(), 0) is None
    two_triangles = Graph.from_pairs(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    assert brute_force_bipartization(two_triangles, 1) is None
    result = brute_force_bipartization(two_triangles, 2)
    assert result is not None and len(result.deleted_edges) == 2
    bipartite = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    assert brute_force_bipartization(bipartite, 3).deleted_edges == frozenset()


@pytest.mark.parametrize("call, error, message", [
    (lambda: edge_bipartization(triangle(), -1), ValueError, "k must be >= 0, got -1"),
    (
        lambda: brute_force_bipartization(Graph(2, (Edge(0, 1, 2),)), 1),
        GraphError,
        "brute_force_bipartization requires unit weights",
    ),
], ids=["engine k -1", "oracle weight 2"])
def test_bipartization_input_checks_keep_their_messages(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_brute_force_capacity():
    g = Graph.from_pairs(2, [(0, 1)] * 21)
    with pytest.raises(CapacityError):
        brute_force_bipartization(g, 1)


def test_engine_matches_brute_force():
    rng = random.Random(0xB1B)
    for _ in range(150):
        g = random_graph(rng, max_vertices=8, max_edges=12)
        k = rng.randint(0, 4)
        fast = edge_bipartization(g, k)
        slow = brute_force_bipartization(g, k)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert len(fast.deleted_edges) == len(slow.deleted_edges)
            _check_proper(g, fast)


def test_signed_engine_matches_brute_force():
    rng = random.Random(0x5167)
    for _ in range(150):
        g = random_graph(rng, max_vertices=8, max_edges=12, signed=True)
        k = rng.randint(0, 4)
        fast = edge_bipartization(g, k)
        slow = brute_force_bipartization(g, k)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert len(fast.deleted_edges) == len(slow.deleted_edges)
            _check_proper(g, fast)


def test_weighted_engine_matches_min_weight():
    # the larger size reaches compressions of more candidates, whose guesses
    # flip terminals that carry flow
    for seed, count, max_vertices, max_edges in ((0xE4, 80, 5, 7), (0xE8, 150, 8, 12)):
        rng = random.Random(seed)
        for index in range(count):
            g = random_graph(rng, max_vertices=max_vertices, max_edges=max_edges,
                             max_weight=4, signed=index % 2 == 1)
            want = min_weight_bipartization(g)
            result = edge_bipartization(g, want)
            assert result is not None
            assert sum(g.edges[eid].weight for eid in result.deleted_edges) == want
            _check_proper(g, result)
            if want > 0:
                assert edge_bipartization(g, want - 1) is None


# sha256 of (side, sorted deleted edges), or b"-" for None, over the corpus
# below. The cuts, and so the answers, must not depend on the flow that a
# compression keeps from one guess to the next. Some of its flips move a
# terminal that holds less flow than at its last flip, which raises the flow
# value; no other test reaches that case.
BIPARTIZE_GOLDEN = "cc1814680f9f35589737b8c075860b6e983e62bd555b37befa40392b016cba1c"
# The search's work over the same corpus: a change to how edges are inserted
# or stored must leave every compression, guess and augmenting path in place.
BIPARTIZE_GOLDEN_STATS = SearchStats(compressions=641, guesses=1516, flow_augmentations=2607)


def test_bipartize_golden_digest():
    rng = random.Random(0x60D)
    digest = hashlib.sha256()
    answers = 0
    stats = SearchStats()
    for i in range(400):
        g = random_graph(rng, max_vertices=12, max_edges=24, max_weight=3, signed=i % 2 == 1)
        result = edge_bipartization(g, i % 7, stats=stats)
        if result is None:
            digest.update(b"-")
        else:
            answers += 1
            digest.update(result.side + bytes(sorted(result.deleted_edges)) + b"|")
    assert (digest.hexdigest(), answers) == (BIPARTIZE_GOLDEN, 224)
    assert stats == BIPARTIZE_GOLDEN_STATS


def test_engine_cost_does_not_grow_with_weight():
    g = Graph(3, (Edge(0, 1, 10**9), Edge(1, 2, 10**9), Edge(0, 2, 10**9 - 1)))
    stats = SearchStats()
    result = edge_bipartization(g, 10**9, stats=stats)
    assert result is not None and result.deleted_edges == frozenset({2})
    assert stats.flow_augmentations <= 2


def test_engine_matches_min_weight_on_triangles_sharing_a_hub():
    # every odd triangle runs through vertex 0, so candidate edges share that
    # end and the Gray-code walk moves terminals that carry flow
    rng = random.Random(0x4B)
    for count in range(2, 6):
        edges = []
        for j in range(count):
            a, b = 2 * j + 1, 2 * j + 2
            parities = rng.choice([(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
            for (u, v), parity in zip([(0, a), (a, b), (0, b)], parities):
                edges.append(Edge(u, v, rng.randint(1, 3), parity))
        g = Graph(2 * count + 1, tuple(edges))
        want = min_weight_bipartization(g)
        for k in range(want + 2):
            result = edge_bipartization(g, k)
            assert (result is None) == (k < want)
            if result is not None:
                assert sum(g.edges[eid].weight for eid in result.deleted_edges) == want
                _check_proper(g, result)


def test_budget_caps_the_flow():
    # optimum 3; the last insertion compresses a set of weight 5, whose cuts
    # the budget k = 2 stops at 3 units of flow, with the same guesses
    g = Graph(4, tuple(Edge(u, v, w) for u, v, w in [
        (0, 1, 3), (1, 2, 1), (0, 2, 3), (2, 3, 3), (0, 3, 1), (1, 2, 3), (0, 1, 1)
    ]))
    for k in range(5):
        result = edge_bipartization(g, k)
        if k < 3:
            assert result is None
        else:
            assert result == Bipartition(bytes((0, 1, 0, 1)), frozenset({2}))
    capped, full = SearchStats(), SearchStats()
    assert edge_bipartization(g, 2, stats=capped) is None
    assert edge_bipartization(g, 13, stats=full) is not None
    assert (capped.compressions, capped.guesses) == (full.compressions, full.guesses)
    assert capped.flow_augmentations < full.flow_augmentations


def test_engine_memory_follows_the_edges():
    # the star's rows as edges under 10**6 vertices; the side bytes are 1 MB,
    # built once in a bytearray and copied once
    star = star_system(10**6)
    g = Graph(star.n, tuple(Edge(u, v, 1, rhs) for (u, v), rhs in zip(star.lhs, star.rhs)))
    result = edge_bipartization(g, 1)
    assert result is not None and len(result.side) == 10**6
    assert result.deleted_edges == frozenset({5})
    assert traced_peak(lambda: edge_bipartization(g, 1)) < 4 * 2**20


def test_sides_of_an_edgeless_graph_are_bytes():
    # n vertices cost n bytes of side, not n pointers
    g = Graph(10**6)
    for solve in (lambda: edge_bipartization(g, 0), lambda: is_bipartite(g)):
        result = solve()
        assert result.side == bytes(10**6) and result.deleted_edges == frozenset()
        assert traced_peak(solve) < 3 * 2**20


def test_union_find_survives_one_deep_chain():
    # the path's edges come from the far end, so each link hangs the old root
    # under a smaller vertex and the tree is one chain of 10**5 vertices
    n = 10**5
    path = [Edge(i, i + 1) for i in reversed(range(n - 1))]
    result = is_bipartite(Graph(n, tuple(path)))
    assert isinstance(result, Bipartition)
    assert result.side == bytes(i % 2 for i in range(n))
    # n - 1 edges of parity 1, so a closing edge of parity 0 makes the cycle odd
    cycle = Graph(n, tuple(path) + (Edge(0, n - 1, 1, 0),))
    witness = is_bipartite(cycle)
    assert isinstance(witness, OddCycle) and sorted(witness.edges) == list(range(n))
    result = edge_bipartization(cycle, 1)
    assert result is not None and len(result.deleted_edges) == 1
    _check_proper(cycle, result)
    assert edge_bipartization(cycle, 0) is None

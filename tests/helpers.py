"""Shared random-instance generators and tiny independent oracles."""

from __future__ import annotations

import itertools
import random
import tracemalloc

from maxlin2 import Edge, Graph, LinSystem, OddCycle, OddSetInstance, is_bipartite


def random_system(
    rng: random.Random,
    *,
    max_vars: int,
    max_eqs: int,
    max_weight: int = 1,
    max_arity: int | None = None,
    max_occurrence: int | None = None,
    min_vars: int = 1,
) -> LinSystem:
    """Random system honoring optional arity and occurrence bounds."""
    n = rng.randint(min_vars, max_vars)
    m = rng.randint(0, max_eqs)
    remaining = [max_occurrence] * n if max_occurrence is not None else None
    eqs = []
    for _ in range(m):
        if remaining is None:
            pool = list(range(n))
        else:
            pool = [v for v in range(n) if remaining[v] > 0]
        if not pool:
            break
        arity_cap = len(pool) if max_arity is None else min(max_arity, len(pool))
        arity = rng.randint(1, arity_cap)
        lhs = sorted(rng.sample(pool, arity))
        if remaining is not None:
            for v in lhs:
                remaining[v] -= 1
        eqs.append((tuple(lhs), rng.randint(0, 1), rng.randint(1, max_weight)))
    return LinSystem.build(n, eqs)


def star_system(n: int) -> LinSystem:
    """Six rows over variables 0..4, with variable 0 in four of them, under header n."""
    rows = [((0, 1), 0), ((0, 2), 0), ((0, 3), 1), ((0, 4), 0), ((1, 2), 0), ((3, 4), 0)]
    return LinSystem.build(n, rows)


def traced_peak(thunk) -> int:
    """The tracemalloc peak, in bytes, of the blocks thunk() allocates."""
    tracemalloc.start()
    try:
        thunk()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_graph(
    rng: random.Random,
    *,
    max_vertices: int,
    max_edges: int,
    max_weight: int = 1,
    signed: bool = False,
) -> Graph:
    """Random multigraph; signed graphs draw each edge's parity at random."""
    n = rng.randint(2, max_vertices)
    m = rng.randint(0, max_edges)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        weight = rng.randint(1, max_weight)
        parity = rng.randint(0, 1) if signed else 1
        edges.append(Edge(min(u, v), max(u, v), weight, parity))
    return Graph(n, tuple(edges))


def oddset_is_yes(inst: OddSetInstance) -> bool:
    """Decide an odd-set instance by enumerating all selections up to budget."""
    for size in range(min(inst.budget, inst.num_elements) + 1):
        for picked in itertools.combinations(range(inst.num_elements), size):
            chosen = set(picked)
            if all(len(chosen & set(s)) % 2 == 1 for s in inst.sets):
                return True
    return False


def min_weight_bipartization(graph: Graph) -> int:
    """Minimum total weight of deleted edges leaving every parity satisfiable."""
    m = len(graph.edges)
    best = None
    for mask in range(1 << m):
        kept = tuple(graph.edges[i] for i in range(m) if not mask >> i & 1)
        if isinstance(is_bipartite(Graph(graph.num_vertices, kept)), OddCycle):
            continue
        weight = sum(graph.edges[i].weight for i in range(m) if mask >> i & 1)
        if best is None or weight < best:
            best = weight
    if best is None:  # deleting every edge always leaves a bipartite graph
        raise AssertionError("no edge set leaves the graph bipartite")
    return best


def all_assignments(n: int):
    return itertools.product((0, 1), repeat=n)


def near_regular_system(rng: random.Random) -> LinSystem:
    """Arity-3 system with every degree exactly 3; nonempty pipeline output.

    Two shapes are distinct-lhs (the pipeline keeps them as they are); the
    third carries a duplicate pair and exits through the dedup gadget with
    six fresh variables, still small enough to enumerate.
    """
    shape = rng.randrange(3)
    if shape == 0:
        n, lhss = 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    elif shape == 1:
        n, lhss = 5, [(0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 3, 4), (2, 3, 4)]
    else:
        n = 6
        lhss = [
            (0, 1, 2),
            (0, 1, 2),
            (0, 3, 4),
            (1, 3, 5),
            (2, 4, 5),
            (3, 4, 5),
        ]
    rows = []
    rhs_by_lhs: dict[tuple[int, ...], int] = {}
    for lhs in lhss:
        rhs = rhs_by_lhs.setdefault(lhs, rng.randint(0, 1))
        rows.append((lhs, rhs, 1))
    return LinSystem.build(n, rows)


def planted_occurrence_system(
    rng: random.Random, *, variable: int, degree: int, max_vars: int,
    extra_eqs: int, max_arity: int = 3
) -> LinSystem:
    """Unit-weight system where `variable` occurs exactly `degree` times."""
    n = rng.randint(max(variable + 1, 2), max_vars)
    eqs = []
    others = [v for v in range(n) if v != variable]
    for _ in range(degree):
        partners = rng.sample(others, rng.randint(0, min(max_arity - 1, len(others))))
        eqs.append((tuple(sorted([variable] + partners)), rng.randint(0, 1), 1))
    for _ in range(rng.randint(0, extra_eqs)):
        arity = rng.randint(1, min(max_arity, len(others)))
        eqs.append((tuple(sorted(rng.sample(others, arity))), rng.randint(0, 1), 1))
    return LinSystem.build(n, eqs)

"""Signed, capacitated multigraphs and minimum-weight edge bipartization.

An edge uv of parity b asks for side[u] XOR side[v] == b, and deleting it
costs its weight. A plain graph is the all-parity-1, all-unit case, where
every edge asks for its endpoints to sit on opposite sides. An edge
bipartization is a deletion set after which every remaining edge can be
satisfied; its cost is its total weight.

The exact engine uses iterative compression (Guo, Gramm, Hüffner,
Niedermeier and Wernicke, JCSS 2006). Edges are inserted one at a time into
a parity union-find while a minimum deletion set for the processed prefix is
kept. When an insertion contradicts the union-find, the old set plus the new
edge is compressed: for each guess of the colours the endpoints of those
edges end up with, a minimum cut in the remaining graph, with edge weights
as capacities, is the cheapest deletion set compatible with the guess.
Flipping every colour maps each cut onto the same cut, so the new edge's
guess bit is fixed (Hüffner, JGAA 2009) and a set of c edges costs 2^(c-1)
guesses. The set holds at most k + 1 edges for budget k, so a compression
costs O(2^k) cuts. The union-find is rebuilt only when a compression
changes the deletion set.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .core import CapacityError, ContractViolationError, MaxLin2Error


class GraphError(MaxLin2Error):
    """Invalid graph construction or an unsupported graph shape."""


@dataclass(frozen=True)
class Edge:
    """Constraint side[u] ^ side[v] == parity, deletable at cost weight.

    Parallel edges are distinct; self-loops are rejected.
    """

    u: int
    v: int
    weight: int = 1
    parity: int = 1

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise GraphError(f"self-loop at vertex {self.u} is not allowed")
        if self.weight < 1:
            raise GraphError(f"edge weight must be >= 1, got {self.weight}")
        if self.parity not in (0, 1):
            raise GraphError(f"edge parity must be 0 or 1, got {self.parity!r}")


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        for e in self.edges:
            if not (0 <= e.u < self.num_vertices and 0 <= e.v < self.num_vertices):
                raise GraphError(f"edge {e} out of vertex range")

    @classmethod
    def from_pairs(cls, num_vertices: int, pairs, weights=None) -> "Graph":
        edges = []
        for i, (u, v) in enumerate(pairs):
            w = 1 if weights is None else weights[i]
            edges.append(Edge(u, v, w))
        return cls(num_vertices, tuple(edges))

    def is_unweighted(self) -> bool:
        return all(e.weight == 1 for e in self.edges)


@dataclass(frozen=True)
class Bipartition:
    """A 2-coloring valid for all edges outside deleted_edges."""

    side: tuple[int, ...]
    deleted_edges: frozenset[int] = frozenset()


@dataclass(frozen=True)
class OddCycle:
    """Witness of non-bipartiteness: edge ids of a closed walk of odd parity sum."""

    edges: tuple[int, ...]


@dataclass
class SearchStats:
    """Work counters for the compression search (used by runtime smoke checks)."""

    compressions: int = 0
    guesses: int = 0
    flow_augmentations: int = 0


class _ParityForest:
    """Union-find in which every vertex stores its colour relative to its parent.

    Each tree is rooted at its smallest vertex, so sides() colours that vertex
    0, as a breadth-first 2-coloring started from it would.
    """

    def __init__(self, num_vertices: int) -> None:
        self.parent = list(range(num_vertices))
        self.parity = [0] * num_vertices

    def find(self, x: int) -> tuple[int, int]:
        """Root of x's tree and x's colour relative to it; compresses the path."""
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        colour = 0
        for y in reversed(path):
            colour ^= self.parity[y]
            self.parity[y] = colour
            self.parent[y] = x
        return x, colour

    def add(self, u: int, v: int, parity: int) -> bool:
        """Impose colour(u) ^ colour(v) == parity; False if that contradicts."""
        root_u, colour_u = self.find(u)
        root_v, colour_v = self.find(v)
        if root_u == root_v:
            return colour_u ^ colour_v == parity
        low, high = sorted((root_u, root_v))
        self.parent[high] = low
        self.parity[high] = colour_u ^ colour_v ^ parity
        return True

    def sides(self) -> tuple[int, ...]:
        return tuple(self.find(x)[1] for x in range(len(self.parent)))


def _forest(g: Graph, edge_ids) -> _ParityForest | None:
    """Parity union-find of the given edges, or None if they contradict."""
    forest = _ParityForest(g.num_vertices)
    for eid in edge_ids:
        e = g.edges[eid]
        if not forest.add(e.u, e.v, e.parity):
            return None
    return forest


def _tree_path(tree, start: int, goal: int) -> list[int]:
    """Edge ids of the path from start to goal in a forest's adjacency lists."""
    via: dict[int, tuple[int, int] | None] = {start: None}
    queue = deque([start])
    while goal not in via:
        x = queue.popleft()
        for y, eid in tree[x]:
            if y not in via:
                via[y] = (x, eid)
                queue.append(y)
    path = []
    while via[goal] is not None:
        goal, eid = via[goal]
        path.append(eid)
    return path[::-1]


def is_bipartite(g: Graph):
    """Return a Bipartition, or an OddCycle witness when none exists."""
    forest = _ParityForest(g.num_vertices)
    tree: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices)]
    for eid, e in enumerate(g.edges):
        joins = forest.find(e.u)[0] != forest.find(e.v)[0]
        if not forest.add(e.u, e.v, e.parity):
            return OddCycle(tuple(_tree_path(tree, e.u, e.v)) + (eid,))
        if joins:
            tree[e.u].append((e.v, eid))
            tree[e.v].append((e.u, eid))
    return Bipartition(side=forest.sides())


def _min_cut(num_vertices, edges, source, sink, bound, stats):
    """Minimum edge cut separating source from sink, or None if above bound.

    edges is a list of (a, b, capacity, payload) undirected edges. Standard
    Edmonds-Karp with antisymmetric flow on each undirected edge. Returns the
    cut's value and the payloads of its edges.
    """
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(num_vertices)]
    for j, (a, b, _, _) in enumerate(edges):
        adjacency[a].append((b, j, 1))
        adjacency[b].append((a, j, -1))
    flow = [0] * len(edges)
    value = 0
    while True:
        parent: list[tuple[int, int, int] | None] = [None] * num_vertices
        parent[source] = (source, -1, 0)
        queue = deque([source])
        while queue and parent[sink] is None:
            u = queue.popleft()
            for v, j, sign in adjacency[u]:
                if parent[v] is None and sign * flow[j] < edges[j][2]:
                    parent[v] = (u, j, sign)
                    queue.append(v)
        if parent[sink] is None:
            break
        path = []
        node = sink
        while node != source:
            u, j, sign = parent[node]
            path.append((j, sign))
            node = u
        push = min(edges[j][2] - sign * flow[j] for j, sign in path)
        value += push
        stats.flow_augmentations += 1
        if value > bound:
            return None
        for j, sign in path:
            flow[j] += sign * push
    reachable = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, j, sign in adjacency[u]:
            if v not in reachable and sign * flow[j] < edges[j][2]:
                reachable.add(v)
                queue.append(v)
    cut = [e for e in edges if (e[0] in reachable) != (e[1] in reachable)]
    if sum(e[2] for e in cut) != value:
        raise ContractViolationError("max-flow/min-cut mismatch")
    return value, [e[3] for e in cut]


def _compress(g: Graph, forest: _ParityForest, active: int, candidate, floor, stats):
    """Cheapest deletion set of the first `active` edges lighter than candidate.

    The forest holds the active edges outside the candidate set, which agree,
    and gives each vertex a colour phi. A guess fixes the sought colour of
    both endpoints of every candidate edge, consistently with its parity;
    an endpoint attaches to the source if its colour must flip and to the
    sink otherwise, by an edge of the candidate edge's weight. A deletion set
    compatible with the guess is then exactly a cut between source and sink.
    No deletion set is lighter than floor, the optimum before the insertion,
    so a cut of that value ends the search.
    """
    stats.compressions += 1
    n = g.num_vertices
    source, sink = n, n + 1
    phi = forest.sides()
    in_candidate = set(candidate)
    host = [
        (e.u, e.v, e.weight, eid)
        for eid, e in enumerate(g.edges[:active])
        if eid not in in_candidate
    ]
    best = None
    bound = sum(g.edges[eid].weight for eid in candidate) - 1
    # the last candidate edge keeps guess bit 0; its complement is the same cut
    for guess in range(1 << (len(candidate) - 1)):
        stats.guesses += 1
        terminals = []
        for i, eid in enumerate(candidate):
            e = g.edges[eid]
            colour_v = (guess >> i) & 1
            for end, colour in ((e.u, colour_v ^ e.parity), (e.v, colour_v)):
                side = source if colour != phi[end] else sink
                terminals.append((end, side, e.weight, eid))
        found = _min_cut(n + 2, host + terminals, source, sink, bound, stats)
        if found is None:
            continue
        value, cut = found
        best, bound = sorted(set(cut)), value - 1
        if value == floor:
            break
    return best


def edge_bipartization(g: Graph, k: int, stats: SearchStats | None = None):
    """Minimum-weight edge deletion set making g bipartite, if it weighs <= k.

    Returns a Bipartition whose deleted_edges is a deletion set of minimum
    total weight, or None when every deletion set weighs more than k.
    Deterministic: edges are inserted in input order, and on unit-weight
    graphs the first improving guess is taken. The search counts its work
    into stats, a fresh SearchStats when none is given.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if stats is None:
        stats = SearchStats()
    forest = _ParityForest(g.num_vertices)
    solution: list[int] = []
    weight = 0
    for eid, e in enumerate(g.edges):
        if forest.add(e.u, e.v, e.parity):
            continue
        improved = _compress(g, forest, eid + 1, solution + [eid], weight, stats)
        if improved is None:
            solution.append(eid)
            weight += e.weight
        else:
            solution = improved
            weight = sum(g.edges[i].weight for i in solution)
            removed = set(solution)
            forest = _forest(g, (i for i in range(eid + 1) if i not in removed))
            if forest is None:
                raise ContractViolationError("compressed set leaves a conflict")
        if weight > k:
            return None
    return Bipartition(side=forest.sides(), deleted_edges=frozenset(solution))


def brute_force_bipartization(g: Graph, k: int, edge_limit: int = 20):
    """Oracle: try all edge subsets of size 0..k in lexicographic order."""
    if len(g.edges) > edge_limit:
        raise CapacityError(
            f"{len(g.edges)} edges exceed the brute-force limit {edge_limit}"
        )
    if not g.is_unweighted():
        raise GraphError("brute_force_bipartization requires unit weights")
    all_ids = range(len(g.edges))
    for size in range(min(k, len(g.edges)) + 1):
        for combo in itertools.combinations(all_ids, size):
            forest = _forest(g, (i for i in all_ids if i not in combo))
            if forest is not None:
                return Bipartition(side=forest.sides(), deleted_edges=frozenset(combo))
    return None

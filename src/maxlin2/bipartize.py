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
guess bit is fixed and a set of c edges costs 2^(c-1) guesses. The set
holds at most k + 1 edges for budget k, so a compression costs O(2^k) cuts.

Every cut of a call runs on one residual network over the vertices that
edges touch, numbered densely in ascending order; an edge's arcs enter when
the first compression that sees it runs. The guesses run in Gray-code order
(Hüffner, JGAA 2009), so the next guess moves the terminals of one edge. It
keeps the flow and re-prices the moved terminal edges by a constant that
every cut pays (Kohli and Torr, TPAMI 2007). A cut stops once its flow
passes k, since a set heavier than k ends the search anyway. The union-find
halves paths and is rebuilt only when a compression finds a lighter set.

The engine reads the graph as raw columns -- each edge's two ends, its
parity and its weight -- and numbers the touched vertices itself, in
ascending order. Edge and Graph are the API of edge_bipartization, which
splits a Graph's edges into those columns; the two-variable solver builds
them from its rows directly, so both reach one engine through one
numbering.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .core import CapacityError, ContractViolationError, MaxLin2Error

# The most edges `brute_force_bipartization` will enumerate subsets of.
BRUTE_FORCE_EDGE_LIMIT = 20


class GraphError(MaxLin2Error):
    """Invalid graph construction or an unsupported graph shape."""


class Edge(NamedTuple):
    """Constraint side[u] ^ side[v] == parity, deletable at cost weight.

    A plain value: the Graph that holds it checks it, once. Parallel edges
    are distinct; a Graph rejects self-loops.
    """

    u: int
    v: int
    weight: int = 1
    parity: int = 1


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        """The one check of each edge: no self-loop, weight >= 1, parity a bit, ends in range."""
        object.__setattr__(self, "edges", tuple(self.edges))
        n = self.num_vertices
        for e in self.edges:
            u, v, weight, parity = e
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            if weight < 1:
                raise GraphError(f"edge weight must be >= 1, got {weight}")
            if parity not in (0, 1):
                raise GraphError(f"edge parity must be 0 or 1, got {parity!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {e} out of vertex range")

    @classmethod
    def from_pairs(cls, num_vertices: int, pairs) -> "Graph":
        """The unit-weight, parity-1 graph of the given (u, v) pairs."""
        return cls(num_vertices, tuple(Edge(u, v) for u, v in pairs))


@dataclass(frozen=True)
class Bipartition:
    """A 2-coloring, one byte 0 or 1 per vertex, valid for all edges outside deleted_edges."""

    side: bytes
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
    flow_augmentations: int = 0  # augmenting paths; each guess keeps the last flow


class _ParityForest:
    """Union-find in which every vertex stores its colour relative to its parent.

    Vertices are dense ids. Each tree is rooted at its smallest
    vertex, so sides() colours that vertex 0, as a breadth-first 2-coloring
    started from it would.
    """

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.parity = [0] * size

    def find(self, x: int) -> tuple[int, int]:
        """Root of x's tree and x's colour relative to it; halves the path
        instead of compressing it (each vertex passed skips to its grandparent)."""
        parent, parity = self.parent, self.parity
        colour = 0
        while parent[x] != x:
            up = parent[x]
            parity[x] ^= parity[up]
            colour ^= parity[x]
            parent[x] = parent[up]
            x = parent[up]
        return x, colour

    def add(self, u: int, v: int, parity: int) -> bool | None:
        """Impose colour(u) ^ colour(v) == parity: None if that contradicts, else
        whether it joined two trees. The larger end steps up (parents are smaller)
        until the ends meet, or it is a root and hangs under the other's root."""
        parent, bits = self.parent, self.parity
        colour = parity
        while u != v:
            if u < v:
                u, v = v, u
            up = parent[u]
            if up == u:
                root, colour_v = self.find(v)
                parent[u], bits[u] = root, colour ^ colour_v
                return True
            bits[u] ^= bits[up]
            colour ^= bits[u]
            parent[u] = parent[up]
            u = parent[up]
        return None if colour else False

    def sides(self, ids, num_vertices: int) -> bytes:
        """Colour of every vertex; dense id i is vertex ids[i], the rest get 0."""
        side = bytearray(num_vertices)
        for i, x in enumerate(ids):
            side[x] = self.find(i)[1]
        return bytes(side)


def _columns(g: Graph):
    """A graph's edges as the engine's raw columns: u ends, v ends, parities
    and weights."""
    return (list(map(itemgetter(i), g.edges)) for i in (0, 1, 3, 2))


def _dense(us, vs):
    """The touched vertices in ascending order, and each edge's ends as
    their indices in that order."""
    ids = sorted(set(us).union(vs))
    index = dict(zip(ids, range(len(ids))))
    return ids, list(zip(map(index.__getitem__, us), map(index.__getitem__, vs)))


def _forest(ends, parity, size: int, edge_ids) -> _ParityForest | None:
    """Parity union-find of the given edges, or None if they contradict."""
    forest = _ParityForest(size)
    for eid in edge_ids:
        if forest.add(*ends[eid], parity[eid]) is None:
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
    us, vs, parity, _ = _columns(g)
    ids, ends = _dense(us, vs)
    forest = _ParityForest(len(ids))
    tree: list[list[tuple[int, int]]] = [[] for _ in ids]
    for eid, (u, v) in enumerate(ends):
        joins = forest.add(u, v, parity[eid])
        if joins is None:
            return OddCycle(tuple(_tree_path(tree, u, v)) + (eid,))
        if joins:
            tree[u].append((v, eid))
            tree[v].append((u, eid))
    return Bipartition(side=forest.sides(ids, g.num_vertices))


class _Network:
    """Residual network over the touched vertices; an edge's arcs enter when
    the first compression that sees it runs.

    Edge i owns arc 2i from its u end to its v end and arc 2i + 1 back; a ^ 1
    is arc a's reverse and head[a] its end. Both start at the edge's weight,
    and a push of f along a moves f residual from a to a ^ 1. Terminal 2i + s
    is end s (u, then v) of candidate edge i, with an edge from the source
    and one to the sink at where[t]. The guess's side (the source's when
    source[t] is set) is active: it holds weight[t] + extra[t], with left[t]
    residual. The other is saturated at its flow extra[t], 0 at the first
    guess and never stored, so it never starts or ends a path.
    """

    def __init__(self, ends, parity, weight, size: int) -> None:
        self.parity, self.weight = parity, weight
        self.head = [x for u, v in ends for x in (v, u)]
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        self.capacity = [w for w in weight for _ in (0, 1)]
        self.grown = 0

    def grow(self, upto: int) -> None:
        """Add the arcs of the edges up to upto that have none yet."""
        out, head = self.out, self.head
        for arc in range(2 * self.grown, 2 * upto + 2, 2):
            out[head[arc + 1]].append((arc, head[arc]))
            out[head[arc]].append((arc + 1, head[arc + 1]))
        self.grown = upto + 1

    def compress(self, forest: _ParityForest, candidate, floor: int, bound: int, stats):
        """Cheapest deletion set of edges 0..candidate[-1] if it weighs at most bound.

        A guess fixes the sought colour of both ends of every candidate edge.
        An end hangs off the source if that flips its colour in the forest of
        the other inserted edges, and off the sink otherwise. No set is
        lighter than floor, the optimum before the insertion.

        A guess keeps the last flow. A flip re-prices both edges of a moved
        terminal t by the flow a on its active edge, which stays saturated at
        extra[t] = a while the other becomes active at weight[t] + a. Every
        cut then costs sum(extra) more than in the guess's own network, so
        value, the flow less sum(extra), is a lower bound on the guess's cut
        and meets it once no path is left; the reached vertices are then the
        least minimum cut of both networks. Since a less the old extra[t] is
        weight[t] - left[t], a flip takes that from value, which can raise
        it, and sets left[t] to 2 weight[t] - left[t]. Paths only lower
        left[t], so it stays in 0..2 weight[t], and extra need not be stored.
        """
        stats.compressions += 1
        self.grow(candidate[-1])
        self.residual = self.capacity[: 2 * self.grown]
        for eid in candidate:
            self.residual[2 * eid] = self.residual[2 * eid + 1] = 0
        # the first guess gives each v end colour 0 and each u end the parity
        self.where = where = [self.head[2 * eid + 1 - s] for eid in candidate for s in (0, 1)]
        colour = [self.parity[eid] * (1 - s) for eid in candidate for s in (0, 1)]
        self.source = source = [c != forest.find(x)[1] for c, x in zip(colour, where)]
        weight = [self.weight[eid] for eid in candidate for _ in (0, 1)]
        self.left = left = weight[:]
        self.value = 0
        best = None
        # Gray-code order: each guess flips the terminals of one candidate edge
        # but the last, whose complement gives the same cuts
        for step in range(1 << (len(candidate) - 1)):
            if step:
                i = (step & -step).bit_length() - 1
                for t in (2 * i, 2 * i + 1):
                    self.value -= weight[t] - left[t]
                    left[t] = 2 * weight[t] - left[t]
                    source[t] = not source[t]
            stats.guesses += 1
            # augment to a maximum flow, or stop past bound with a valid flow
            while self.value <= bound:
                starts = {x: ~t for t, x in enumerate(where) if left[t] and source[t]}
                sinks = {x: t for t, x in enumerate(where) if left[t] and not source[t]}
                via, y = self._walk(starts, sinks)
                if y is None:
                    best, bound = self._cut(via, candidate), self.value - 1
                    break
                self._shift(via, y, sinks[y])
                stats.flow_augmentations += 1
            if self.value == floor:
                break
        return best

    def _walk(self, starts, goals):
        """Breadth-first search from starts (vertex: ~terminal) to a vertex in
        goals along arcs with residual."""
        residual, out = self.residual, self.out
        via = starts
        queue = list(via)
        for y in goals.keys() & via.keys():
            return via, y
        for y in queue:
            for arc, z in out[y]:
                if z not in via and residual[arc]:
                    via[z] = arc
                    if z in goals:
                        return via, z
                    queue.append(z)
        return via, None

    def _shift(self, via, y: int, last: int) -> None:
        """Push as much flow as fits along the walk into y, loading its first
        terminal and last."""
        residual, left = self.residual, self.left
        path = []
        arc = via[y]
        while arc >= 0:
            path.append(arc)
            arc = via[self.head[arc ^ 1]]
        ends = (~arc, last)
        amount = min([left[s] for s in ends] + [residual[a] for a in path])
        for a in path:
            residual[a] -= amount
            residual[a ^ 1] += amount
        for s in ends:
            left[s] -= amount
        self.value += amount

    def _cut(self, reached, candidate) -> list[int]:
        """Edge ids of the cut around reached, checked against the flow value."""
        cut = [arc >> 1 for y in reached for arc, z in self.out[y]
               if z not in reached and self.residual[arc ^ 1]]
        cut += [candidate[t >> 1] for t, x in enumerate(self.where)
                if (x in reached) != self.source[t]]
        if sum(map(self.weight.__getitem__, cut)) != self.value:
            raise ContractViolationError("max-flow/min-cut mismatch")
        return sorted(set(cut))


def _bipartize(us, vs, parity, weight, num_vertices: int, k: int, stats: SearchStats | None = None):
    """The engine on a graph as columns: edge i joins the vertices us[i] and
    vs[i] of num_vertices with parity[i] at cost weight[i]. A minimum-weight
    Bipartition, or None when every deletion set weighs more than k >= 0.
    The search counts its work into stats, a fresh SearchStats when none is
    given.
    """
    if stats is None:
        stats = SearchStats()
    ids, ends = _dense(us, vs)
    size = len(ids)
    network = _Network(ends, parity, weight, size)
    forest = _ParityForest(size)
    solution: list[int] = []
    total = 0
    for eid, (u, v) in enumerate(ends):
        if forest.add(u, v, parity[eid]) is not None:
            continue
        bound = min(total + weight[eid] - 1, k)
        improved = network.compress(forest, solution + [eid], total, bound, stats)
        if improved is None:
            solution.append(eid)
        else:
            solution = improved
            removed = set(solution)
            forest = _forest(ends, parity, size, (i for i in range(eid + 1) if i not in removed))
            if forest is None:
                raise ContractViolationError("compressed set leaves a conflict")
        total = sum(map(weight.__getitem__, solution))
        if total > k:
            return None
    return Bipartition(forest.sides(ids, num_vertices), frozenset(solution))


def edge_bipartization(g: Graph, k: int, stats: SearchStats | None = None):
    """Minimum-weight edge deletion set making g bipartite, if it weighs <= k.

    Returns a Bipartition whose deleted_edges is a deletion set of minimum
    total weight, or None when every deletion set weighs more than k.
    Deterministic: edges are inserted in input order, and each compression
    takes the first improving guess in Gray-code order. The search counts
    its work into stats, a fresh SearchStats when none is given.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _bipartize(*_columns(g), g.num_vertices, k, stats)


def brute_force_bipartization(g: Graph, k: int):
    """Oracle: try all edge subsets of size 0..k in lexicographic order."""
    if len(g.edges) > BRUTE_FORCE_EDGE_LIMIT:
        raise CapacityError(
            f"{len(g.edges)} edges exceed the brute-force limit {BRUTE_FORCE_EDGE_LIMIT}"
        )
    if any(e.weight != 1 for e in g.edges):
        raise GraphError("brute_force_bipartization requires unit weights")
    us, vs, parity, _ = _columns(g)
    ids, ends = _dense(us, vs)
    all_ids = range(len(g.edges))
    for size in range(min(k, len(g.edges)) + 1):
        for combo in itertools.combinations(all_ids, size):
            forest = _forest(ends, parity, len(ids), (i for i in all_ids if i not in combo))
            if forest is not None:
                return Bipartition(forest.sides(ids, g.num_vertices), frozenset(combo))
    return None

"""Fixed-parameter solver for systems with at most two variables per equation.

Deciding whether some assignment falsifies weight at most k reduces to edge
bipartization of one signed, capacitated graph: variables are vertices 0..n-1
and vertex n is an anchor. An equation x + y = b of weight w becomes the edge
xy of parity b and capacity w, and x = b becomes the edge from x to the
anchor of parity 1 - b. Reading x = 1 iff x sits on the anchor's side turns
every satisfied edge into a satisfied equation, so a deletion set of minimum
weight is an optimal set of falsified equations.
"""

from __future__ import annotations

from .baseline import SolveResult, _result
from .bipartize import Edge, Graph, edge_bipartization
from .core import (
    ContractViolationError,
    InstanceClassError,
    LinSystem,
    normalize,
)

_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _constraint_graph(system: LinSystem) -> Graph:
    """Signed graph of a normalized system; edge j stands for equation j."""
    anchor = system.n
    edges = []
    for lhs, rhs, weight in zip(system.lhs, system.rhs, system.weights):
        if len(lhs) == 2:
            edges.append(Edge(lhs[0], lhs[1], weight, rhs))
        else:
            edges.append(Edge(lhs[0], anchor, weight, 1 - rhs))
    return Graph(anchor + 1, tuple(edges))


def solve_below_W(system: LinSystem, k: int) -> SolveResult | None:
    """Exact decision (and optimum) for falsifying weight at most k.

    Pipeline: normalize, build the constraint graph with the normalized
    weights and run the edge bipartization engine on it. Weights are not
    capped: no cut the engine keeps weighs more than k, so an edge heavier
    than k is never cut, and a flow of at most k never saturates it. Returns
    None when the true optimum exceeds k; otherwise the result carries an
    optimal assignment.
    """
    for j, lhs in enumerate(system.lhs):
        if len(lhs) > 2:
            raise InstanceClassError(
                f"equation {system.equations[j]} has {len(lhs)} variables;"
                " at most 2 allowed"
            )
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    norm = normalize(system)
    budget = k - norm.forced_falsified
    if budget < 0:
        return None
    bp = edge_bipartization(_constraint_graph(norm), budget)
    if bp is None:
        return None
    # x = 1 iff x shares the anchor's side: keep the bits, or flip them all
    side = bp.side
    if not side[system.n]:
        side = side.translate(_FLIP)
    assignment = tuple(side[: system.n])
    result = _result(system, assignment)
    if result.falsified_weight > k:
        raise ContractViolationError(
            f"assignment falsifies {result.falsified_weight} > budget {k}"
        )
    return result

"""Fixed-parameter solver for systems with at most two variables per equation.

Deciding whether some assignment falsifies weight at most k reduces to edge
bipartization of one signed, capacitated graph: variables are vertices 0..n-1
and vertex n is an anchor. An equation x + y = b of weight w becomes the edge
xy of parity b and capacity w, and x = b becomes the edge from x to the
anchor of parity 1 - b. Reading x = 1 iff x sits on the anchor's side turns
every satisfied edge into a satisfied equation, so a deletion set of minimum
weight is an optimal set of falsified equations.

The graph goes to the engine as raw columns (u ends, v ends, parities,
weights), built straight from the normalized rows; the engine numbers the
vertices itself, as it does for a Graph. No Edge or Graph is made: the
system checked its rows when it was built, so no row gives a self-loop, a
weight below 1 or a parity other than 0 or 1.
"""

from __future__ import annotations

from .baseline import SolveResult, _result
from .bipartize import _bipartize
from .core import (
    ContractViolationError,
    InstanceClassError,
    LinSystem,
    normalize,
)

_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _graph_columns(system: LinSystem):
    """The constraint graph of a normalized system as the engine's raw
    columns: per row its edge's u end, its v end (the anchor n for x = b)
    and its parity."""
    lhs, n = system.lhs, system.n
    us = [r[0] for r in lhs]
    vs = [r[1] if len(r) == 2 else n for r in lhs]
    # len(r) & 1 is 1 just for x = b, whose edge has parity 1 - b
    parity = [b ^ (len(r) & 1) for r, b in zip(lhs, system.rhs)]
    return us, vs, parity


def solve_below_W(system: LinSystem, k: int) -> SolveResult | None:
    """Exact decision (and optimum) for falsifying weight at most k.

    Pipeline: normalize, build the constraint graph's columns with the
    normalized weights and run the edge bipartization engine on them.
    Weights are not capped: no cut the engine keeps weighs more than k, so
    an edge heavier than k is never cut, and a flow of at most k never
    saturates it. Returns None when the true optimum exceeds k; otherwise
    the result carries an optimal assignment.
    """
    if max(map(len, system.lhs), default=0) > 2:
        j = next(j for j, lhs in enumerate(system.lhs) if len(lhs) > 2)
        raise InstanceClassError(
            f"equation {system.equations[j]} has {len(system.lhs[j])} variables; at most 2 allowed"
        )
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    norm = normalize(system)
    budget = k - norm.forced_falsified
    if budget < 0:
        return None
    us, vs, parity = _graph_columns(norm)
    bp = _bipartize(us, vs, parity, norm.weights, system.n + 1, budget)
    if bp is None:
        return None
    # x = 1 iff x shares the anchor's side: keep the bits, or flip them all
    side = bp.side if bp.side[system.n] else bp.side.translate(_FLIP)
    result = _result(system, side[: system.n])
    if result.falsified_weight > k:
        raise ContractViolationError(
            f"assignment falsifies {result.falsified_weight} > budget {k}"
        )
    return result

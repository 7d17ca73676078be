"""Exact polynomial solver for systems where every variable occurs at most twice.

Read equations as nodes and variables as edges between the (at most two)
equations holding them. A variable held by one equation is a pendant edge:
that equation can be satisfied last, so its whole component is satisfiable.
A component without pendant edges has every variable twice, so its rows sum
to zero: it is satisfiable iff its rhs bits XOR to 0, and otherwise exactly
its lightest equation is lost. `solve_occ2` realises this with one peel of a
spanning tree per component; `solve_occ2_merge` is an independent
cross-check that only reports the optimal value. Neither prunes rows first;
the singleton cascade of the (=3,=3) pipeline lives in `gadgets`.
"""

from __future__ import annotations

from collections import deque

from .baseline import SolveResult, _result
from .core import (
    ContractViolationError,
    InstanceClassError,
    LinSystem,
    normalize,
    occurrence_counts,
    variable_rows,
)


def _check_occurrence_bound(system: LinSystem) -> None:
    occ = occurrence_counts(system)
    if occ and max(occ) > 2:
        worst = occ.index(max(occ))
        raise InstanceClassError(
            f"variable {worst} occurs {occ[worst]} times; at most 2 allowed"
        )


def _bfs(lhs, holders, root: int, seen: list[bool]) -> tuple[list[int], list[int]]:
    """Equations reachable from root in BFS order, and the variable linking
    each to its BFS parent (-1 for the root). lhs is the lhs column."""
    seen[root] = True
    order = [root]
    link = [-1]
    queue = deque([root])
    while queue:
        j = queue.popleft()
        for v in lhs[j]:
            for i in holders[v]:
                if not seen[i]:
                    seen[i] = True
                    order.append(i)
                    link.append(v)
                    queue.append(i)
    return order, link


def solve_occ2(system: LinSystem) -> SolveResult:
    """Exact optimum for instances with every variable in at most 2 equations.

    Each component is rooted at an equation holding a pendant variable if
    there is one, else, when its rhs bits XOR to 1, at its lightest equation
    (least weight, then index), else anywhere. In reverse BFS order every
    other equation sets the variable linking it to its parent; variables off
    the tree stay 0. The root then holds, via its pendant variable or by
    parity, except in the odd pendant-free case where it is the one loss.
    Runs in O(n + size).
    """
    _check_occurrence_bound(system)
    norm = normalize(system)
    lhs, rhs, weights = norm.lhs, norm.rhs, norm.weights
    holders = variable_rows(norm.n, lhs)
    assignment = [0] * system.n
    internal = norm.forced_falsified
    found = [False] * len(lhs)
    rooted = [False] * len(lhs)
    for start in range(len(lhs)):
        if found[start]:
            continue
        members, _ = _bfs(lhs, holders, start, found)
        root, pendant = None, -1
        parity = 0
        for j in members:
            parity ^= rhs[j]
            if root is None:
                pendant = next((v for v in lhs[j] if len(holders[v]) == 1), -1)
                if pendant >= 0:
                    root = j
        if root is None:
            root = min(members, key=lambda j: (weights[j], j)) if parity else start
        order, link = _bfs(lhs, holders, root, rooted)
        link[0] = pendant
        if pendant < 0 and parity:
            internal += weights[root]
        for j, var in zip(reversed(order), reversed(link)):
            if var < 0:
                continue  # a pendant-free root holds by parity or is the loss
            value = rhs[j]
            for v in lhs[j]:
                if v != var:
                    value ^= assignment[v]
            assignment[var] = value
    result = _result(system, assignment)
    if result.falsified_weight != internal:
        raise ContractViolationError("solver bookkeeping out of sync")
    return result


def solve_occ2_merge(system: LinSystem) -> int:
    """Optimal falsified weight via pairwise merging; value only.

    While some variable occurs in two equations, replace the pair by its
    GF(2) sum carrying the smaller of the two weights. Leftover constant
    equations 0=1 are exactly the unavoidable losses. An index from each
    variable to the rows holding it keeps every merge local: only the
    variables of the smaller row are re-pointed.
    """
    _check_occurrence_bound(system)
    norm = normalize(system)
    rows = [set(lhs) for lhs in norm.lhs]
    rhs = list(norm.rhs)
    weight = list(norm.weights)
    row_ids = list(map(set, variable_rows(norm.n, norm.lhs)))
    for var in range(norm.n):
        if len(row_ids[var]) != 2:
            continue
        keep, gone = row_ids[var]
        if len(rows[keep]) < len(rows[gone]):
            keep, gone = gone, keep
        for v in rows[gone]:
            row_ids[v].discard(gone)
            if v in rows[keep]:
                rows[keep].discard(v)
                row_ids[v].discard(keep)
            else:
                rows[keep].add(v)
                row_ids[v].add(keep)
        rhs[keep] ^= rhs[gone]
        weight[keep] = min(weight[keep], weight[gone])
        rows[gone] = None
    return norm.forced_falsified + sum(
        w for row, b, w in zip(rows, rhs, weight) if row == set() and b == 1
    )

"""Exact polynomial solver for systems where every variable occurs at most twice.

Read equations as nodes and variables as edges between the (at most two)
equations holding them. A variable held by one equation is a pendant edge:
that equation can be satisfied last, so its whole component is satisfiable.
A component without pendant edges has every variable twice, so its rows sum
to zero: it is satisfiable iff its rhs bits XOR to 0, and otherwise exactly
its lightest equation is lost. `solve_occ2` realises this with one
breadth-first search per component, started at a pendant edge where there
is one and at the lightest row otherwise. It takes its per-variable index
from `core.holders` and sets the witnesses with `core._satisfy_removed`,
as the singleton cascade of the (=3,=3) pipeline does, but it does not run
that cascade: a breadth-first search also deletes the pendant-free
components, which the cascade leaves.
`solve_occ2_merge` is an independent cross-check that only reports the
optimal value.

Both solvers read the rows as given. Under the occurrence bound a repeated
row or an opposing pair holds every occurrence of its variables, so it is a
component of its own and loses its lighter row iff its rhs bits differ; a
constant row holds no variable and is lost iff its rhs is 1.
"""

from __future__ import annotations

from itertools import compress

from .baseline import SolveResult, _result
from .core import (
    ContractViolationError,
    InstanceClassError,
    LinSystem,
    _satisfy_removed,
    holders,
    variable_rows,
)


def solve_occ2(system: LinSystem) -> SolveResult:
    """Exact optimum for instances with every variable in at most 2 equations.

    `holders` counts each held variable and XORs the indices of the rows
    holding it, so a shared variable leads from either of its rows to the
    other. Each component is then deleted breadth-first from one root:
    every row reached through a shared variable v is deleted with witness
    v, which no later row holds. A component with a pendant variable is
    rooted at a row holding one, with that variable as its witness, and
    loses nothing. Every other component has every variable twice, so its
    rows sum to zero: it is rooted at its lightest row (least weight, then
    caller index), which is its one loss iff its rhs bits XOR to 1. A
    constant row is such a component of its own. `_satisfy_removed`
    replays the rows deleted with a witness in reverse, from all zeros, so
    that each holds. Runs in O(size) plus a sort of the rows of
    pendant-free components, beyond the n-bit assignment.
    """
    lhs, rhs, weights = system.lhs, system.rhs, system.weights
    count, holder = holders(lhs)
    most = max(count, default=0)
    if most > 2:
        raise InstanceClassError(
            f"variable {count.index(most)} occurs {most} times; at most 2 allowed"
        )
    pendants = [(holder[v], v) for v in compress(range(len(count)), map((1).__eq__, count))]
    for _, v in pendants:
        holder[v] = 0  # so that from its one row it leads back to that row
    live = bytearray(b"\x01") * len(lhs)
    removed: list[tuple[tuple[int, ...], int, int]] = []  # (lhs, rhs, witness)

    def peel(root: int) -> list[int]:
        """Delete the live component of root breadth-first; its rows."""
        live[root] = 0
        rows = [root]
        for j in rows:  # rows grows as the search reaches new rows
            for v in lhs[j]:
                u = holder[v] ^ j
                if live[u]:
                    live[u] = 0
                    rows.append(u)
                    removed.append((lhs[u], rhs[u], v))
        return rows

    for j, v in pendants:
        if live[j]:
            removed.append((lhs[j], rhs[j], v))
            peel(j)
    internal = system.forced_falsified
    # A stable sort: ties go to the lower index.
    for root in sorted(compress(range(len(lhs)), live), key=weights.__getitem__):
        if live[root] and sum(map(rhs.__getitem__, peel(root))) & 1:
            internal += weights[root]
    result = _result(system, _satisfy_removed(removed, [0] * system.n))
    if result.falsified_weight != internal:
        raise ContractViolationError("solver bookkeeping out of sync")
    return result


def solve_occ2_merge(system: LinSystem) -> int:
    """Optimal falsified weight via pairwise merging; value only.

    While some variable occurs in two equations, replace the pair by its
    GF(2) sum carrying the smaller of the two weights. Leftover constant
    equations 0=1, given or merged, are exactly the unavoidable losses: a
    repeated row merges to 0=0 and an opposing pair to 0=1 at the lighter
    weight. An index from each variable to the rows holding it keeps every
    merge local: only the variables of the smaller row are re-pointed. A
    merge never raises an occurrence, so each entry of the index stays at
    most two rows long.
    """
    row_ids = variable_rows(system.lhs)
    most = max(map(len, row_ids.values()), default=0)
    if most > 2:
        worst = min(v for v, rows in row_ids.items() if len(rows) == most)
        raise InstanceClassError(f"variable {worst} occurs {most} times; at most 2 allowed")
    rows = [set(lhs) for lhs in system.lhs]
    rhs = list(system.rhs)
    weight = list(system.weights)
    for var in sorted(row_ids):
        if len(row_ids[var]) != 2:
            continue
        keep, gone = row_ids[var]
        if len(rows[keep]) < len(rows[gone]):
            keep, gone = gone, keep
        for v in rows[gone]:
            row_ids[v].remove(gone)
            if v in rows[keep]:
                rows[keep].discard(v)
                row_ids[v].remove(keep)
            else:
                rows[keep].add(v)
                row_ids[v].append(keep)
        rhs[keep] ^= rhs[gone]
        weight[keep] = min(weight[keep], weight[gone])
        rows[gone] = None
    return system.forced_falsified + sum(
        w for row, b, w in zip(rows, rhs, weight) if row == set() and b == 1
    )

"""Exact polynomial solver for systems where every variable occurs at most twice.

Read equations as nodes and variables as edges between the (at most two)
equations holding them. A variable held by one equation is a pendant edge:
that equation can be satisfied last, so its whole component is satisfiable.
A component without pendant edges has every variable twice, so its rows sum
to zero: it is satisfiable iff its rhs bits XOR to 0, and otherwise exactly
its lightest equation is lost. `solve_occ2` realises this with the singleton
cascade of `core`, which the (=3,=3) pipeline also runs: deleting a row
leaves its neighbours a pendant edge, so the cascade removes components
whole, and a component it cannot start on is started at its lightest row.
`solve_occ2_merge` is an independent cross-check that only reports the
optimal value.

Both solvers read the rows as given. Under the occurrence bound a repeated
row or an opposing pair holds every occurrence of its variables, so it is a
component of its own and loses its lighter row iff its rhs bits differ; a
constant row holds no variable and is lost iff its rhs is 1.
"""

from __future__ import annotations

from .baseline import SolveResult, _result
from .core import (
    ContractViolationError,
    InstanceClassError,
    LinSystem,
    _satisfy_removed,
    occurrences,
    singleton_cascade,
    variable_rows,
)


def _check_occurrence_bound(lhs) -> None:
    """Refuse a variable in more than two rows, given the lhs column."""
    counts = occurrences(lhs)
    most = max(counts.values(), default=0)
    if most > 2:
        worst = min(v for v, c in counts.items() if c == most)
        raise InstanceClassError(f"variable {worst} occurs {most} times; at most 2 allowed")


def solve_occ2(system: LinSystem) -> SolveResult:
    """Exact optimum for instances with every variable in at most 2 equations.

    The singleton cascade deletes every row that holds a variable of no
    other live row; when none is left, it deletes the lightest live row
    (least weight, then caller index) as a root and cascades on, which removes
    the root's whole component. A component no root has reached has every
    variable twice and is deleted whole, so its root is its lightest row,
    and the one loss of the component iff the rhs bits from it up to the
    next root XOR to 1: its rows sum to zero. Replaying the other deleted
    rows in reverse, from all zeros, satisfies each by its witness. A
    constant row is reached only as a root, and is lost iff its rhs is 1.
    Runs in O(size · log size) beyond the n-bit assignment.
    """
    lhs, rhs, weights = system.lhs, system.rhs, system.weights
    _check_occurrence_bound(lhs)
    roots = sorted(range(len(lhs)), key=weights.__getitem__)  # stable: ties by index
    deleted = singleton_cascade(lhs, roots)
    internal = system.forced_falsified
    parity = 0
    for j, witness in reversed(deleted):
        parity ^= rhs[j]
        if witness < 0:
            internal += weights[j] * parity
            parity = 0
    removed = [(lhs[j], rhs[j], witness) for j, witness in deleted if witness >= 0]
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
    _check_occurrence_bound(system.lhs)
    row_ids = variable_rows(system.lhs)
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

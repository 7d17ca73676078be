"""Exact polynomial solver for systems where every variable occurs at most twice.

Two independent routes are provided: a structural solver (prune singleton
variables, split into connected components, patch the rhs parity of each
component by dropping one minimum-weight equation) and a pairwise merge
solver that only reports the optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baseline import F2Matrix, SolveResult, f2_solve, _result
from .core import (
    ContractViolationError,
    Equation,
    InstanceClassError,
    LinSystem,
    normalize,
    occurrence_counts,
)


@dataclass(frozen=True)
class PruneStep:
    """One singleton deletion: the removed equation and its witness variable."""

    equation: Equation
    witness: int


@dataclass(frozen=True)
class PruneLog:
    steps: tuple[PruneStep, ...]


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of the equation graph (edges = shared variables)."""

    components: tuple[LinSystem, ...]
    component_of: tuple[int, ...]
    equation_ids: tuple[tuple[int, ...], ...]


def _check_occurrence_bound(system: LinSystem) -> None:
    occ = occurrence_counts(system)
    if occ and max(occ) > 2:
        worst = occ.index(max(occ))
        raise InstanceClassError(
            f"variable {worst} occurs {occ[worst]} times; at most 2 allowed"
        )


def prune_singletons(system: LinSystem) -> tuple[LinSystem, PruneLog]:
    """Exhaustively delete equations that contain a variable occurring once.

    Such an equation can always be satisfied by choosing that variable last,
    so the minimum falsified weight is unchanged. Deletions cascade; the
    lowest-indexed singleton variable is processed first.
    """
    alive = list(range(len(system.equations)))
    steps: list[PruneStep] = []
    while True:
        occ = [0] * system.n
        holder = [-1] * system.n
        for j in alive:
            for v in system.equations[j].lhs:
                occ[v] += 1
                holder[v] = j
        witness = next((v for v in range(system.n) if occ[v] == 1), None)
        if witness is None:
            break
        j = holder[witness]
        steps.append(PruneStep(system.equations[j], witness))
        alive.remove(j)
    pruned = LinSystem(
        system.n,
        tuple(system.equations[j] for j in alive),
        system.forced_falsified,
    )
    return pruned, PruneLog(tuple(steps))


def extend_assignment(log: PruneLog, assignment) -> tuple[int, ...]:
    """Replay a prune log in reverse, fixing each witness to satisfy its equation."""
    values = list(assignment)
    for step in reversed(log.steps):
        parity = 0
        for v in step.equation.lhs:
            if v != step.witness:
                parity ^= values[v]
        values[step.witness] = parity ^ step.equation.rhs
    return tuple(values)


def split_components(system: LinSystem) -> ComponentPartition:
    """Group equations into connected components of the shared-variable graph."""
    m = len(system.equations)
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    first_seen: dict[int, int] = {}
    for j, eqn in enumerate(system.equations):
        for v in eqn.lhs:
            if v in first_seen:
                union(first_seen[v], j)
            else:
                first_seen[v] = j
    roots: list[int] = []
    component_of = []
    for j in range(m):
        r = find(j)
        if r not in roots:
            roots.append(r)
        component_of.append(roots.index(r))
    ids: list[list[int]] = [[] for _ in roots]
    for j, c in enumerate(component_of):
        ids[c].append(j)
    components = tuple(
        LinSystem(system.n, tuple(system.equations[j] for j in members))
        for members in ids
    )
    return ComponentPartition(
        components=components,
        component_of=tuple(component_of),
        equation_ids=tuple(tuple(members) for members in ids),
    )


def _solve_component(system: LinSystem, ids: tuple[int, ...], assignment: list[int]):
    """Solve one post-prune component in place; return its falsified weight.

    In such a component every variable occurs exactly twice, so the rows sum
    to zero: the component is solvable iff the rhs bits XOR to 0, and
    otherwise exactly one equation (chosen of minimum weight) is falsified.
    """
    eqs = [system.equations[j] for j in ids]
    rhs_parity = 0
    for eqn in eqs:
        rhs_parity ^= eqn.rhs
    dropped = None
    if rhs_parity == 1:
        dropped = min(range(len(ids)), key=lambda i: (eqs[i].weight, ids[i]))
    kept = [eqn for i, eqn in enumerate(eqs) if i != dropped]
    solution = f2_solve(F2Matrix.from_system(LinSystem(system.n, tuple(kept))))
    if solution is None:
        raise ContractViolationError("post-prune component must be consistent")
    for eqn in eqs:
        for v in eqn.lhs:
            assignment[v] = solution[v]
    return 0 if dropped is None else eqs[dropped].weight


def solve_occ2(system: LinSystem) -> SolveResult:
    """Exact optimum for instances with every variable in at most 2 equations."""
    _check_occurrence_bound(system)
    norm = normalize(system)
    pruned, log = prune_singletons(norm)
    parts = split_components(pruned)
    assignment = [0] * system.n
    internal = norm.forced_falsified
    for comp_ids in parts.equation_ids:
        internal += _solve_component(pruned, comp_ids, assignment)
    full = extend_assignment(log, assignment)
    result = _result(system, full)
    if result.falsified_weight != internal:
        raise ContractViolationError("solver bookkeeping out of sync")
    return result


def solve_occ2_merge(system: LinSystem) -> int:
    """Optimal falsified weight via pairwise merging; value only.

    While some variable occurs in two equations, replace the pair by its
    GF(2) sum carrying the smaller of the two weights. Leftover constant
    equations 0=1 are exactly the unavoidable losses.
    """
    _check_occurrence_bound(system)
    norm = normalize(system)
    rows: list[tuple[int, int, int]] = []  # (lhs bitmask, rhs, weight)
    for eqn in norm.equations:
        mask = 0
        for v in eqn.lhs:
            mask |= 1 << v
        rows.append((mask, eqn.rhs, eqn.weight))
    while True:
        shared = None
        for var in range(norm.n):
            bit = 1 << var
            holders = [i for i, (mask, _, _) in enumerate(rows) if mask & bit]
            if len(holders) == 2:
                shared = holders
                break
        if shared is None:
            break
        i, j = shared
        mask = rows[i][0] ^ rows[j][0]
        rhs = rows[i][1] ^ rows[j][1]
        weight = min(rows[i][2], rows[j][2])
        rows[i] = (mask, rhs, weight)
        del rows[j]
    return norm.forced_falsified + sum(
        w for mask, rhs, w in rows if mask == 0 and rhs == 1
    )

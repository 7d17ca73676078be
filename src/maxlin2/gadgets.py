"""Cost-preserving instance transformations.

Two families live here. The first encodes an odd-intersection hitting
problem as a weighted equation system whose heavy chain blocks force odd
parity on the chosen ground elements. The second is a rewriting pipeline
that turns any arity-at-most-3 system into a unit-weight system where every
equation has exactly three variables, every variable occurs in exactly three
equations, and no two equations share a left-hand side -- without changing
the minimum falsified weight.

Every transformation logs a trace step that records only its rule data
and the variable and equation counts before and after, never a copy of the
system. Replaying the trace in reverse maps an assignment of the reduced
instance back to one of the original whose falsified weight never exceeds
the reduced one (and matches it at the optimum).

The rules rewrite one store of lhs and rhs columns with a variable-to-rows
index, so a degree rule touches only its variable's rows and its new tie
rows. The store keeps every variable's occurrence count current as rows
come and go, so nothing is recounted, and a pass they show to be idle (the
singleton cascade, renumbering the output) is skipped. The (=3,=3) checks --
three variables per row, three rows per variable, distinct left-hand sides
-- run on these columns and counts where the output's columns are built; no
stage builds an Equation per row. Reduction and both assignment maps cost
O(input + output). The output size of the degree rules follows from the
degree profile alone, so an output above MAX_UNIT_EQUATIONS equations is
refused with CapacityError (exit 64 from `maxlin2 reduce`) before it is built.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import NamedTuple

from .core import (
    MAX_UNIT_EQUATIONS,
    CapacityError,
    ContractViolationError,
    DimensionError,
    Equation,
    InstanceClassError,
    LinSystem,
    MaxLin2Error,
    expand_unit_weights,
    normalize,
)
from .occ2 import PruneLog, PruneStep, extend_assignment, singleton_cascade


class GadgetError(MaxLin2Error):
    """A transformation was applied outside its stated preconditions."""


# ---------------------------------------------------------------------------
# Odd-intersection instances and their encoding as heavy chain blocks


@dataclass(frozen=True)
class OddSetInstance:
    """Ground set {0..n-1}, distinct nonempty subsets, and a selection budget.

    A YES-instance admits at most `budget` elements meeting every subset in
    an odd number of elements.
    """

    num_elements: int
    sets: tuple[tuple[int, ...], ...]
    budget: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sets", tuple(tuple(sorted(s)) for s in self.sets)
        )
        if self.num_elements < 0:
            raise ValueError("ground set size must be >= 0")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        seen = set()
        for members in self.sets:
            if not members:
                raise ValueError("empty set not allowed")
            if len(set(members)) != len(members):
                raise ValueError(f"repeated element in set {members}")
            if members[0] < 0 or members[-1] >= self.num_elements:
                raise ValueError(f"set {members} out of range")
            if members in seen:
                raise ValueError(f"duplicate set {members}")
            seen.add(members)


class OddSetReduction(NamedTuple):
    """Encoded system plus the block structure needed to audit it."""

    system: LinSystem
    budget: int
    blocks: tuple[tuple[int, ...], ...]
    num_elements: int


def oddset_to_lin2(inst: OddSetInstance) -> OddSetReduction:
    """Encode element selection as unit equations x_i=0 plus heavy chains.

    Every ground element i contributes x_i = 0 of weight 1. Every subset
    contributes a chain block of weight budget+1 whose equations sum to
    "XOR of the subset's variables = 1", so any assignment falsifying at
    most `budget` weight must satisfy all blocks and therefore pick an odd
    number of elements from every subset. A single-element subset collapses
    to the telescoped constraint x = 1 directly.
    """
    heavy = inst.budget + 1
    eqs: list[Equation] = [
        Equation((i,), 0, 1) for i in range(inst.num_elements)
    ]
    blocks: list[tuple[int, ...]] = []
    next_var = inst.num_elements
    for members in inst.sets:
        ids: list[int] = []
        size = len(members)
        if size == 1:
            ids.append(len(eqs))
            eqs.append(Equation((members[0],), 1, heavy))
        else:
            chain = list(range(next_var, next_var + size - 1))
            next_var += size - 1
            ids.append(len(eqs))
            eqs.append(Equation.make((chain[0], members[0]), 0, heavy))
            for r in range(1, size - 1):
                ids.append(len(eqs))
                eqs.append(
                    Equation.make((chain[r - 1], chain[r], members[r]), 0, heavy)
                )
            ids.append(len(eqs))
            eqs.append(Equation.make((chain[-1], members[-1]), 1, heavy))
        blocks.append(tuple(ids))
    system = LinSystem(next_var, tuple(eqs))
    return OddSetReduction(system, inst.budget, tuple(blocks), inst.num_elements)


def chain_block_parity_check(system: LinSystem, block, x_vars) -> int:
    """Audit one chain block: does it telescope to odd parity on its x-vars?

    Sums the block's equations over GF(2). Returns 1 iff all chain variables
    cancel (the summed lhs equals the block's ground variables, a subset of
    x_vars) and the summed rhs is 1; returns 0 otherwise.
    """
    block = tuple(block)
    if not block:
        raise GadgetError("empty block")
    allowed = set(x_vars)
    lhs_sum: set[int] = set()
    rhs_sum = 0
    ground: set[int] = set()
    for j in block:
        if not 0 <= j < len(system.lhs):
            raise GadgetError(f"equation id {j} out of range")
        lhs = set(system.lhs[j])
        lhs_sum ^= lhs
        rhs_sum ^= system.rhs[j]
        ground |= lhs & allowed
    return 1 if (lhs_sum == ground and rhs_sum == 1) else 0


# ---------------------------------------------------------------------------
# Trace machinery


@dataclass(frozen=True)
class TraceStep:
    """One applied rule: the data the assignment maps need, and the sizes.

    pre_n/pre_m and post_n/post_m are the variable and equation counts of
    the system before and after the rule.
    """

    rule: str
    data: dict
    pre_n: int
    pre_m: int
    post_n: int
    post_m: int


def _sized_step(rule: str, data: dict, pre: LinSystem, post: LinSystem) -> TraceStep:
    return TraceStep(rule, data, pre.n, len(pre.lhs), post.n, len(post.lhs))


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[TraceStep, ...]
    original_system: LinSystem
    reduced_system: LinSystem

    def map_assignment_back(self, assignment) -> tuple[int, ...]:
        """Map an assignment of the reduced system to the original system.

        The mapped assignment falsifies at most as much weight as the given
        one does on the reduced system; at the optimum the weights agree.
        """
        values = _checked_list(assignment, self.reduced_system.n)
        for step in reversed(self.steps):
            values = _map_back_step(step, values)
        return tuple(values)

    def map_assignment_forward(self, assignment) -> tuple[int, ...]:
        """Extend an assignment of the original system to the reduced system.

        The extension falsifies at most as much weight as the input does on
        the original system, and exactly as much when the input is optimal:
        every gadget is extended along its cost-preserving witness, and
        equations dropped as always-satisfiable get their witness variables
        re-satisfied first.
        """
        values = _checked_list(assignment, self.original_system.n)
        for step in self.steps:
            values = _map_forward_step(step, values)
        return tuple(values)


def _checked_list(assignment, n: int) -> list[int]:
    values = list(assignment)
    if len(values) != n:
        raise DimensionError(f"assignment length {len(values)} != variable count {n}")
    return values


def _best_uniform_clone_value(step: TraceStep, values) -> int:
    """Pick the clone value whose uniform assignment falsifies least.

    Only the rows that held the split variable tell the two values apart:
    the ring and chord rows hold under any uniform value, and every other
    row is the same under both. Ties go to 0.
    """
    variable = step.data["variable"]
    falsified = [0, 0]
    for lhs, rhs in step.data["rows"]:
        parity = rhs
        for v in lhs:
            if v != variable:
                parity ^= values[v]
        falsified[parity ^ 1] += 1  # the row holds iff the clones equal parity
    return 1 if falsified[1] < falsified[0] else 0


# Both maps rewrite one list in place: a step truncates or extends it by the
# variables it removed or added, so a whole map costs O(input + output).


def _map_back_step(step: TraceStep, values: list[int]) -> list[int]:
    rule = step.rule
    pre_n = step.pre_n
    if rule in ("normalize", "unit-expand", "opposing-pairs"):
        return values
    if rule in ("degree4", "degree5plus"):
        v = _best_uniform_clone_value(step, values)
        del values[pre_n:]
        values[step.data["variable"]] = v
        return values
    if rule in ("arity-expand", "degree2-triplets"):
        del values[pre_n:]
        return values
    if rule == "always-satisfied-removal":
        return list(extend_assignment(step.data["log"], values))
    if rule == "deduplicate":
        del values[pre_n:]
        for (x, y, z), rhs in step.data["triples"]:
            values[x] = rhs
            values[y] = 0
            values[z] = 0
        return values
    if rule == "compact":
        out = [0] * pre_n
        for new_index, old_index in enumerate(step.data["kept"]):
            out[old_index] = values[new_index]
        return out
    raise ContractViolationError(f"unknown trace rule {rule!r}")


def _map_forward_step(step: TraceStep, values: list[int]) -> list[int]:
    rule = step.rule
    if rule in ("normalize", "unit-expand", "opposing-pairs"):
        return values
    if rule in ("degree4", "degree5plus"):
        clones = step.data["clones"]
        values.extend([values[clones[0]]] * (len(clones) - 1))
        return values
    if rule == "arity-expand":
        for lhs, rhs in step.data["expanded"]:
            if len(lhs) == 2:
                values.extend((values[lhs[0]], 0))  # u = x, v = 0 satisfies u+v+x=0
            else:
                # a = 1 shifts the mismatch onto a single gadget equation
                values.extend((0, 0, 0, 0) if values[lhs[0]] == rhs else (1, 0, 0, 0))
        return values
    if rule == "always-satisfied-removal":
        return list(extend_assignment(step.data["log"], values))
    if rule == "degree2-triplets":
        for t1, t2, t3 in step.data["triplets"]:
            tie = values[t1] ^ values[t2]
            t = values[t3]
            values.extend((tie, 0, t, tie, t, tie ^ t))
        return values
    if rule == "deduplicate":
        # Triples need nothing: their variables occur in no output row.
        for (x, y, z), rhs in step.data["pairs"]:
            parity = values[x] ^ values[y] ^ values[z]
            c = values[z] if parity == rhs else values[z] ^ 1
            values.extend((values[x], values[y], c, values[x], values[y], c))
        return values
    if rule == "compact":
        return [values[old] for old in step.data["kept"]]
    raise ContractViolationError(f"unknown trace rule {rule!r}")


# ---------------------------------------------------------------------------
# The working store the rewriting rules share


class _Rows:
    """A unit-weight system as the lhs and rhs columns the rules rewrite.

    The store starts from the system's own columns, as a list of lhs tuples
    and a bytearray of rhs bits; row j is (lhs[j], rhs[j]). Every rule below
    runs on one store and builds no Equation. `occ[v]` is the number of rows
    holding v: it is counted once, from the input, and every rule that adds
    or drops rows counts their variables in or out, so no rule recounts. The
    pipeline's (=3,=3) checks run on these columns and counts in `_compact`,
    which builds the checked output columns, renumbering only when a slot is
    empty; the single-rule entry points build theirs with `system()`.
    """

    def __init__(self, system: LinSystem, op: str) -> None:
        if any(w != 1 for w in system.weights):
            raise GadgetError(f"{op} requires unit weights")
        self.n = system.n
        self.lhs = list(system.lhs)
        self.rhs = bytearray(system.rhs)
        self.forced = system.forced_falsified
        self.occ = [0] * self.n
        self.count(self.lhs, 1)

    def grow(self, n: int) -> None:
        """Add variable slots up to n; no row holds the new ones yet."""
        self.occ += [0] * (n - self.n)
        self.n = n

    def count(self, lhss, sign: int) -> None:
        """Count the variables of rows that were added (+1) or dropped (-1)."""
        occ = self.occ
        for lhs in lhss:
            for v in lhs:
                occ[v] += sign

    def sizes(self) -> tuple[int, int]:
        return self.n, len(self.lhs)

    def step(self, rule: str, data: dict, pre: tuple[int, int]) -> TraceStep:
        return TraceStep(rule, data, *pre, self.n, len(self.lhs))

    def holders(self) -> list[list[int]]:
        """Ids of the rows holding each variable, ascending."""
        holders: list[list[int]] = [[] for _ in range(self.n)]
        for j, lhs in enumerate(self.lhs):
            for v in lhs:
                holders[v].append(j)
        return holders

    def system(self) -> LinSystem:
        m = len(self.lhs)
        return LinSystem.from_columns(self.n, self.lhs, self.rhs, (1,) * m, self.forced)


# ---------------------------------------------------------------------------
# Occurrence (degree) reduction rules

# Clone slots ascend with their indices, so each tie pair is stored sorted.
_RING = ((0, 1), (1, 2), (2, 3), (0, 3))
_RING_AND_CHORDS = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4), (2, 5))


def _split(store: _Rows, holders: list[list[int]], variable: int) -> TraceStep:
    """Split one variable of degree d >= 4 into tied clones, in place.

    d = 4: the four occurrences go to a 4-cycle of clones. d >= 5: they go
    round robin to six clones tied by a ring and three chords, each tie
    repeated ceil((d-2)/6) times. Only the variable's rows and the new tie
    rows are touched; each clone is fresh, so it sorts last in its row. The
    step records the variable's rows as they were before the split, the
    only rows map-back has to evaluate.
    """
    lhs_column, rhs_column = store.lhs, store.rhs
    ids = holders[variable]
    degree = len(ids)
    pre = store.sizes()
    n = store.n
    data: dict = {
        "variable": variable,
        "rows": tuple((lhs_column[j], rhs_column[j]) for j in ids),
    }
    if degree == 4:
        rule, ties, copies = "degree4", _RING, 1
        clones = (variable, n, n + 1, n + 2)
        order = clones
    else:
        rule, ties, copies = "degree5plus", _RING_AND_CHORDS, -((degree - 2) // -6)
        clones = (variable,) + tuple(range(n, n + 5))
        data["copies"] = copies
        # Fill the last clone first, round robin, so the sorted original
        # occurrence counts sit between floor(d/6) and ceil(d/6).
        order = clones[::-1]
    data["clones"] = clones
    store.grow(n + len(clones) - 1)
    holders[variable] = []
    holders.extend([] for _ in clones[1:])
    for used, j in enumerate(ids):
        clone = order[used % len(order)]
        if clone != variable:
            lhs = lhs_column[j]
            i = lhs.index(variable)
            lhs_column[j] = lhs[:i] + lhs[i + 1 :] + (clone,)
        holders[clone].append(j)
    for a, b in ties:
        x, y = clones[a], clones[b]
        for _ in range(copies):
            holders[x].append(len(lhs_column))
            holders[y].append(len(lhs_column))
            lhs_column.append((x, y))
            rhs_column.append(0)
    for clone in clones:
        store.occ[clone] = len(holders[clone])
    return store.step(rule, data, pre)


def _split_growth(degree: int, memo: dict) -> tuple[int, int]:
    """Variables and rows the degree rules add to bring one variable to <= 3."""
    if degree <= 3:
        return 0, 0
    if degree == 4:
        return 3, 4
    if degree not in memo:
        copies = -((degree - 2) // -6)
        n, m = 5, 9 * copies
        for r in range(6):
            # The clone filled r-th takes occurrences r, r + 6, ... plus its
            # three kinds of tie rows.
            dn, dm = _split_growth(-((degree - r) // -6) + 3 * copies, memo)
            n += dn
            m += dm
        memo[degree] = n, m
    return memo[degree]


def _normalize_degrees(store: _Rows) -> list[TraceStep]:
    """Split the worst variable, lowest index first, until every d(x) <= 3.

    The output size depends only on the degree profile, so it is predicted
    before any row is built: a prediction above MAX_UNIT_EQUATIONS rows is
    refused with CapacityError, and a build that misses it is a bug.
    """
    holders = store.holders()
    memo: dict = {}
    n, m = store.sizes()
    for ids in holders:
        dn, dm = _split_growth(len(ids), memo)
        n += dn
        m += dm
    if m > MAX_UNIT_EQUATIONS:
        raise CapacityError(
            f"degree splitting would build {m} equations, over {MAX_UNIT_EQUATIONS}"
        )
    # A variable's count changes only when it is split, which pops its one
    # heap entry first, so no entry goes stale.
    heap = [(-len(ids), v) for v, ids in enumerate(holders) if len(ids) > 3]
    heapq.heapify(heap)
    steps: list[TraceStep] = []
    while heap:
        step = _split(store, holders, heapq.heappop(heap)[1])
        steps.append(step)
        for c in step.data["clones"]:
            if len(holders[c]) > 3:
                heapq.heappush(heap, (-len(holders[c]), c))
    if store.sizes() != (n, m):
        raise ContractViolationError(
            f"degree splitting built {store.sizes()}, predicted {(n, m)}"
        )
    return steps


def _split_step(system: LinSystem, variable: int, rule: str) -> tuple[LinSystem, TraceStep]:
    store = _Rows(system, f"{rule} rule")
    holders = store.holders()
    degree = len(holders[variable])
    if (degree != 4) if rule == "degree4" else (degree < 5):
        raise GadgetError(f"variable {variable} occurs {degree} times; {rule} does not apply")
    step = _split(store, holders, variable)
    return store.system(), step


def reduce_degree4(system: LinSystem, variable: int) -> LinSystem:
    """Split a variable occurring 4 times into a 4-cycle of fresh variables."""
    return _split_step(system, variable, "degree4")[0]


def reduce_degree5plus(system: LinSystem, variable: int) -> LinSystem:
    """Split a variable occurring 5+ times into 6 ring-and-chord-tied clones."""
    return _split_step(system, variable, "degree5plus")[0]


def normalize_max_degree3(system: LinSystem) -> tuple[LinSystem, ReductionTrace]:
    """Apply the degree rules, worst variable first, until every d(x) <= 3.

    Raises CapacityError, before building anything, when the output would
    exceed MAX_UNIT_EQUATIONS equations.
    """
    store = _Rows(system, "degree normalization")
    steps = _normalize_degrees(store)
    out = store.system()
    return out, ReductionTrace(tuple(steps), system, out)


# ---------------------------------------------------------------------------
# Arity expansion to exactly three variables per equation


def _expand_arity(store: _Rows) -> TraceStep:
    pre = store.sizes()
    next_var = store.n
    lhs_column: list = []
    rhs_column = bytearray()
    expanded = []
    added: list = []
    for lhs, rhs in zip(store.lhs, store.rhs):
        if len(lhs) == 3:
            lhs_column.append(lhs)
            rhs_column.append(rhs)
            continue
        if len(lhs) == 2:
            u, v = next_var, next_var + 1
            next_var += 2
            gadget = ((lhs[0], u, v), (lhs[1], u, v))
            bits = (0, rhs)
        elif len(lhs) == 1:
            x = lhs[0]
            a, b, u, v = range(next_var, next_var + 4)
            next_var += 4
            gadget = ((x, a, b), (a, u, v), (b, u, v))
            bits = (rhs, 0, 0)
        else:
            raise GadgetError(
                f"arity {len(lhs)} equation cannot be expanded to arity 3"
            )
        lhs_column += gadget
        rhs_column += bytes(bits)
        added += gadget
        expanded.append((lhs, rhs))
    store.grow(next_var)
    store.count([lhs for lhs, _ in expanded], -1)
    store.count(added, 1)
    store.lhs, store.rhs = lhs_column, rhs_column
    return store.step("arity-expand", {"expanded": tuple(expanded)}, pre)


def _expand_arity_step(system: LinSystem) -> tuple[LinSystem, TraceStep]:
    store = _Rows(system, "arity expansion")
    step = _expand_arity(store)
    return store.system(), step


def expand_arity_to_3(system: LinSystem) -> LinSystem:
    """Pad arity-1 and arity-2 equations to arity 3 with fresh variables.

    A satisfied source equation extends to satisfy the whole gadget; a
    falsified one forces exactly one falsified gadget equation, so the
    optimum is preserved.
    """
    return _expand_arity_step(system)[0]


# ---------------------------------------------------------------------------
# Occurrence exactly three


def _enforce_degree(store: _Rows) -> list[TraceStep]:
    occ = store.occ
    if max(occ, default=0) > 3:
        raise GadgetError("occurrence above 3; run degree normalization first")
    if set(map(len, store.lhs)) - {3}:
        raise GadgetError("arity must be exactly 3; run arity expansion first")
    # Equations holding a variable that occurs nowhere else are always
    # satisfiable; when a count is 1, drop them (cascading) and log the witnesses.
    pre = store.sizes()
    lhs_column, rhs_column = store.lhs, store.rhs
    deleted = singleton_cascade(store.n, lhs_column) if 1 in occ else []
    log = PruneLog(
        tuple(PruneStep(Equation(lhs_column[j], rhs_column[j]), w) for j, w in deleted)
    )
    if deleted:
        gone = {j for j, _ in deleted}
        store.count([lhs_column[j] for j in gone], -1)
        live = [j not in gone for j in range(len(lhs_column))]
        store.lhs = lhs_column = list(compress(lhs_column, live))
        store.rhs = rhs_column = bytearray(compress(rhs_column, live))
    steps = [store.step("always-satisfied-removal", {"log": log}, pre)]
    deg2 = [v for v, c in enumerate(occ) if c == 2]
    if len(deg2) % 3:
        raise ContractViolationError(
            f"{len(deg2)} variables of occurrence 2; expected a multiple of 3"
        )
    pre = store.sizes()
    next_var = store.n
    start = len(lhs_column)
    triplets = []
    for i in range(0, len(deg2), 3):
        t1, t2, t3 = deg2[i : i + 3]
        a, b, c, d, e, f = range(next_var, next_var + 6)
        next_var += 6
        lhs_column += (
            (t1, t2, a),
            (t3, b, c),
            (a, b, d),
            (a, e, f),
            (b, c, e),
            (c, d, f),
            (d, e, f),
        )
        triplets.append((t1, t2, t3))
    rhs_column += bytes(len(lhs_column) - start)
    store.grow(next_var)
    store.count(lhs_column[start:], 1)
    steps.append(store.step("degree2-triplets", {"triplets": tuple(triplets)}, pre))
    return steps


def enforce_degree_exactly3(system: LinSystem) -> tuple[LinSystem, ReductionTrace]:
    """Make every used variable occur exactly three times.

    Always-satisfiable equations (those with a singly-occurring variable) are
    removed first; the remaining occurrence-2 variables are grouped into
    ascending-index triplets, each tied to six fresh variables by seven
    distinct unit equations. Every value of a triplet has exactly one
    completion satisfying all seven, so the optimum is unchanged.
    """
    store = _Rows(system, "degree enforcement")
    steps = _enforce_degree(store)
    out = store.system()
    return out, ReductionTrace(tuple(steps), system, out)


# ---------------------------------------------------------------------------
# Duplicate elimination


def _deduplicate(store: _Rows) -> TraceStep:
    lhs_column, rhs_column = store.lhs, store.rhs
    if set(map(len, lhs_column)) - {3}:
        raise GadgetError("deduplication expects arity exactly 3")
    pre = store.sizes()
    if len(set(lhs_column)) == len(lhs_column):
        return store.step("deduplicate", {"pairs": (), "triples": ()}, pre)
    first: dict[tuple[int, ...], int] = {}
    copies: dict[tuple[int, ...], list[int]] = {}
    for j, lhs in enumerate(lhs_column):
        i = first.setdefault(lhs, j)
        if i != j:
            copies.setdefault(lhs, [i]).append(j)
    occ = store.occ
    for lhs, members in copies.items():
        if len({rhs_column[j] for j in members}) > 1:
            raise ContractViolationError(
                f"equations with lhs {lhs} disagree on rhs"
            )
        if len(members) > 3:
            raise ContractViolationError(
                f"{len(members)} copies of lhs {lhs}; at most 3 possible"
            )
        if len(members) == 3:
            for v in lhs:
                if occ[v] != 3:
                    raise ContractViolationError(
                        f"variable {v} of a triple copy occurs elsewhere"
                    )
    next_var = store.n
    out_lhs: list = []
    out_rhs = bytearray()
    dropped: list = []
    added: list = []
    pairs = []
    triples = []
    for j, (lhs, b) in enumerate(zip(lhs_column, rhs_column)):
        members = copies.get(lhs)
        if members is None:
            out_lhs.append(lhs)
            out_rhs.append(b)
            continue
        if j != members[0]:
            continue
        dropped += [lhs] * len(members)
        if len(members) == 3:
            triples.append((lhs, b))
            continue
        # Two copies: replace with eight equations over six fresh variables.
        # Under an assignment satisfying the copied equation all eight hold;
        # otherwise each inconsistent half forces one falsified equation,
        # matching the weight of the two lost copies.
        x, y, z = lhs
        a1, b1, c1, a2, b2, c2 = range(next_var, next_var + 6)
        next_var += 6
        gadget = (
            (x, y, c1),
            (a1, b1, c1),
            (z, a1, b1),
            (x, y, c2),
            (a2, b2, c2),
            (z, a2, b2),
            (a1, c1, b2),
            (b1, a2, c2),
        )
        out_lhs += gadget
        out_rhs += bytes((b,)) * len(gadget)
        added += gadget
        pairs.append((lhs, b))
    store.grow(next_var)
    store.count(dropped, -1)
    store.count(added, 1)
    store.lhs, store.rhs = out_lhs, out_rhs
    data = {"pairs": tuple(pairs), "triples": tuple(triples)}
    return store.step("deduplicate", data, pre)


def deduplicate_equations(system: LinSystem) -> tuple[LinSystem, ReductionTrace]:
    """Remove duplicate left-hand sides without changing the optimum.

    Three identical copies only involve variables occurring nowhere else, so
    the copies are always satisfiable and simply removed. Two copies are
    replaced by the eight-equation gadget over six fresh variables. In the
    pipeline the copies come from the input alone: no gadget writes one.
    """
    store = _Rows(system, "deduplication")
    step = _deduplicate(store)
    out = store.system()
    return out, ReductionTrace((step,), system, out)


# ---------------------------------------------------------------------------
# Full pipeline


def _resolve_opposing_step(system: LinSystem) -> tuple[LinSystem, TraceStep]:
    """Fold pairs L=0 / L=1 with the same lhs into the forced ledger.

    Every assignment falsifies exactly one side of such a pair, costing at
    least the lighter weight; what remains is a single equation carrying the
    weight difference. Pointwise exact, so both assignment maps are the
    identity. The input is normalized, so each (lhs, rhs) occurs once.
    Duplicate-elimination later relies on this having run.
    """
    by_lhs: dict[tuple[int, ...], list[int]] = {}
    for lhs, rhs, weight in zip(system.lhs, system.rhs, system.weights):
        by_lhs.setdefault(lhs, [0, 0])[rhs] += weight
    forced = system.forced_falsified
    lhs_column, rhs_column, weights = [], bytearray(), []
    for lhs, (w0, w1) in sorted(by_lhs.items()):
        if w0 and w1:
            forced += min(w0, w1)
            w0, w1 = w0 - min(w0, w1), w1 - min(w0, w1)
        for rhs, weight in ((0, w0), (1, w1)):
            if weight:
                lhs_column.append(lhs)
                rhs_column.append(rhs)
                weights.append(weight)
    post = LinSystem.from_columns(system.n, lhs_column, rhs_column, weights, forced)
    return post, _sized_step("opposing-pairs", {}, system, post)


def _compact(store: _Rows) -> tuple[LinSystem, TraceStep]:
    """Drop unused variable slots and build the (=3,=3) output, checked.

    The store's counts show every kept variable occurring exactly three
    times, and the row lengths show every row holding three. The rows are
    renumbered only when a slot is empty. Building the output checks every
    row's order, range and rhs, and the set of left-hand sides shows that
    no two coincide.
    """
    pre = store.sizes()
    occ = store.occ
    if not set(occ) <= {0, 3}:
        bad = next(v for v, c in enumerate(occ) if c not in (0, 3))
        raise ContractViolationError(
            f"pipeline output has variable {bad} occurring {occ[bad]} times, not 3"
        )
    lhs = store.lhs
    if set(map(len, lhs)) - {3}:
        raise ContractViolationError("pipeline output has a row that is not arity-3")
    kept = tuple(compress(range(store.n), occ))
    if len(kept) < store.n:
        remap = list(accumulate(map(bool, occ), initial=0))  # kept slots below v
        lhs = [(remap[x], remap[y], remap[z]) for x, y, z in lhs]
    try:
        out = LinSystem.from_columns(
            len(kept), lhs, store.rhs, (1,) * len(lhs), store.forced
        )
    except ValueError as exc:
        raise ContractViolationError(
            f"pipeline output row is not a valid arity-3 equation: {exc}"
        ) from exc
    if len(set(out.lhs)) != len(lhs):
        raise ContractViolationError("pipeline output has duplicate left-hand sides")
    return out, TraceStep("compact", {"kept": kept}, *pre, out.n, len(lhs))


def to_eq3_eq3(system: LinSystem) -> tuple[LinSystem, ReductionTrace]:
    """Full pipeline to a unit-weight (=3,=3) system with distinct lhs.

    Stages: normalize, fold opposing same-lhs pairs into the forced ledger,
    expand weights to unit copies, cut occurrences down to 3, pad arities up
    to 3, enforce occurrence exactly 3, deduplicate, and finally drop unused
    variable slots. Each stage preserves the minimum falsified weight, so
    the composition does too. From the degree rules on, the stages rewrite
    one row store; the last one checks the (=3,=3) shape on the rows and
    builds the output's columns in the same pass.
    """
    if max(map(len, system.lhs), default=0) > 3:
        raise InstanceClassError("pipeline input must have arity at most 3")
    s0 = normalize(system)
    s1, opposing = _resolve_opposing_step(s0)
    s2 = expand_unit_weights(s1)
    steps = [
        _sized_step("normalize", {}, system, s0),
        opposing,
        _sized_step("unit-expand", {}, s1, s2),
    ]
    store = _Rows(s2, "degree normalization")
    steps.extend(_normalize_degrees(store))
    steps.append(_expand_arity(store))
    steps.extend(_enforce_degree(store))
    steps.append(_deduplicate(store))
    out, compact = _compact(store)
    steps.append(compact)
    return out, ReductionTrace(tuple(steps), system, out)

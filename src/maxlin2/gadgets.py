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

Every `maxlin2 reduce` target runs one pipeline, `reduce_to_target`, and
stops after a prefix of its stages. Rows holding a variable no other row
holds are always satisfiable: they are dropped once, cascading, on the
weighted rows, and logged as plain rows. From unit expansion on, the rules
rewrite one store that holds the lhs and rhs columns; the degree rules
count occurrences once and index the rows by variable only when some
variable splits, the padding takes the variables at occurrence 2 from that
count, and every other count is taken from the rows.
The (=3,=3) checks -- three variables per row, three rows per variable,
distinct left-hand sides -- run on these columns where the output's
columns are built: no stage builds an Equation. Reduction and both
assignment maps cost O(input + output). A variable of degree 4 to 8
splits into clones joined by a small tie graph that leaves every clone at
degree 3. One above 8 splits along the product of cliques K_g^t, with 1 to
3 ties per adjacent clone pair, that adds the fewest rows in all, its
clones splitting in turn; the family holds the ceil(log2 d)-cube K_2^t, so
a split costs at most the cube's O(d log d) rows. Lindsey's
edge-isoperimetric theorem for K_g^t makes its exactness one closed-form
check.
Every gadget that replaces a row of arity 1 or 2 or a pair of copied
rows, or pads occurrence-2 variables (six at a time by 10 rows, a last
three by 7), is one entry of one table: one writer lays its rows out, the
forward map completes it and the size prediction counts it from that
entry. No rule brings a variable down to one occurrence, so the output
size follows exactly from the weighted degree profile, and a stage above
MAX_UNIT_EQUATIONS equations is refused with CapacityError (exit 64 from
`maxlin2 reduce`) before unit expansion builds anything.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, cycle, product, repeat
from operator import eq, ne
from typing import NamedTuple

from .core import (
    MAX_UNIT_EQUATIONS,
    CapacityError,
    ContractViolationError,
    InstanceClassError,
    LinSystem,
    MaxLin2Error,
    _check_assignment,
    _satisfy_removed,
    expand_unit_weights,
    normalize,
    occurrences,
    singleton_cascade,
    variable_rows,
)


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
    """The encoded system and the instance's budget.

    The instance is a YES-instance iff the system's minimum falsified
    weight is at most `budget`.
    """

    system: LinSystem
    budget: int


def oddset_to_lin2(inst: OddSetInstance) -> OddSetReduction:
    """Encode element selection as unit equations x_i=0 plus heavy chains.

    Every ground element i contributes x_i = 0 of weight 1. Every subset
    contributes a chain block of weight budget+1 whose equations sum to
    "XOR of the subset's variables = 1", so any assignment falsifying at
    most `budget` weight must satisfy all blocks and therefore pick an odd
    number of elements from every subset. A single-element subset collapses
    to the telescoped constraint x = 1 directly.
    """
    ground = inst.num_elements
    lhs_column: list[tuple[int, ...]] = [(i,) for i in range(ground)]
    rhs_column = bytearray(ground)
    next_var = ground
    for members in inst.sets:
        # Row r holds member r and chain variables r - 1 and r where they
        # exist; chain variables follow every ground element, so rows stay sorted.
        chain = range(next_var, next_var + len(members) - 1)
        next_var = chain.stop
        lhs_column += ((x, *chain[max(r - 1, 0) : r + 1]) for r, x in enumerate(members))
        rhs_column += bytes(len(chain)) + b"\x01"
    weights = [1] * ground + [inst.budget + 1] * (len(lhs_column) - ground)
    system = LinSystem.from_columns(next_var, lhs_column, rhs_column, weights)
    return OddSetReduction(system, inst.budget)


# ---------------------------------------------------------------------------
# Trace machinery


@dataclass(frozen=True)
class TraceStep:
    """One applied rule: the data the assignment maps need, and the sizes.

    pre_n/pre_m and post_n/post_m are the variable and equation counts of
    the system before and after the rule. Both maps replay a step from the
    record its data holds, never from its rule name:
    - "variable" (with "rows"): a split; its clones are the variable and the
      fresh range pre_n..post_n - 1. Forward gives every clone the
      variable's value; back drops the clones and sets the variable to the
      uniform clone value that falsifies the fewest of "rows".
    - "groups" (with "triples" from deduplication): gadgets written from
      pre_n on. Forward completes each copy from its sources; back drops
      the fresh variables and sets each dropped triple to satisfy it.
    - "kept": a renumbering; new variable i is old variable kept[i].
    - "removed": rows dropped as always satisfiable. Forward keeps the
      values; back sets each row's witness to satisfy it, last row first.
    A step that holds none of these changes no variable, and both maps are
    the identity on it; one that changes n without a record is a bug.
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
        _check_assignment(assignment, self.reduced_system.n)
        values = list(assignment)
        for step in reversed(self.steps):
            values = _map_back_step(step, values)
        return tuple(values)

    def map_assignment_forward(self, assignment) -> tuple[int, ...]:
        """Extend an assignment of the original system to the reduced system.

        The extension falsifies at most as much weight as the input does on
        the original system, and exactly as much when the input is optimal:
        every gadget is extended along its cost-preserving witness. The
        witness of a row dropped as always-satisfiable keeps its given value:
        no reduced row holds it, so no cost reads it.
        """
        _check_assignment(assignment, self.original_system.n)
        values = list(assignment)
        for step in self.steps:
            values = _map_forward_step(step, values)
        return tuple(values)

    def text(self) -> str:
        """One line per step; `maxlin2 reduce` writes each as a `c trace` line.

        Each line names the rule, the variable of a step that records one
        (a split), and the equation and variable counts before and after the
        step. A trace of no steps has no lines.
        """
        lines = []
        for step in self.steps:
            detail = f" variable={step.data['variable']}" if "variable" in step.data else ""
            lines.append(
                f"{step.rule}{detail}"
                f" m:{step.pre_m}->{step.post_m} n:{step.pre_n}->{step.post_n}\n"
            )
        return "".join(lines)


def _best_uniform_clone_value(step: TraceStep, values) -> int:
    """Pick the clone value whose uniform assignment falsifies least.

    Only the rows that held the split variable tell the two values apart:
    the tie rows hold under any uniform value, and every other row is the
    same under both. Ties go to 0.
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
# Each tests first for a split's "variable", the record most steps hold.


def _map_back_step(step: TraceStep, values: list[int]) -> list[int]:
    data = step.data
    if "variable" in data:
        v = _best_uniform_clone_value(step, values)
        del values[step.pre_n :]
        values[data["variable"]] = v
    elif "groups" in data:
        del values[step.pre_n :]
        for (x, y, z), rhs in data.get("triples", ()):
            values[x] = rhs
            values[y] = 0
            values[z] = 0
    elif "kept" in data:
        out = [0] * step.pre_n
        for new_index, old_index in enumerate(data["kept"]):
            out[old_index] = values[new_index]
        return out
    elif "removed" in data:
        return _satisfy_removed(data["removed"], values)
    elif step.post_n != step.pre_n:
        raise ContractViolationError(f"trace step {step.rule!r} changes n but records no map")
    return values


def _map_forward_step(step: TraceStep, values: list[int]) -> list[int]:
    data = step.data
    if "variable" in data:
        values.extend([values[data["variable"]]] * (step.post_n - step.pre_n))
    elif "groups" in data:
        # Each copy of a gadget is completed by one lookup on the values of
        # the slots its fresh variables read.
        # Triples need nothing: their variables occur in no output row.
        for name, sources, rhs_bits in data["groups"]:
            k = _GADGETS[name][0]
            read, completions = _completions(name)
            columns = [rhs_bits if s < 0 else map(values.__getitem__, sources[s::k]) for s in read]
            values.extend(chain.from_iterable(map(completions.__getitem__, zip(*columns))))
    elif "kept" in data:
        return [values[old] for old in data["kept"]]
    elif step.post_n != step.pre_n:
        raise ContractViolationError(f"trace step {step.rule!r} changes n but records no map")
    return values


# ---------------------------------------------------------------------------
# The working store the rewriting rules share


class _Rows:
    """A unit-weight system as the lhs and rhs columns the rules rewrite.

    The store starts from the system's own columns, as a list of lhs tuples
    and a bytearray of rhs bits; row j is (lhs[j], rhs[j]). Every rule below
    runs on one store, sets `n` itself when it adds variables, and builds no
    Equation. The rules that need occurrence counts take them from the rows
    with `core.occurrences`; `twos` keeps the degree rule's list of the
    variables at occurrence 2 for the padding. The pipeline's (=3,=3) checks run on these columns
    in `_compact`, which renumbers only when a slot is empty; `system()`
    builds the output columns and checks every row. `checked` is the number
    of leading rows that deduplication found arity-3 and distinct, so that
    `_compact` repeats those checks only when a row lies past them.
    """

    def __init__(self, system: LinSystem, op: str) -> None:
        if any(w != 1 for w in system.weights):
            raise GadgetError(f"{op} requires unit weights")
        self.n = system.n
        self.lhs = list(system.lhs)
        self.rhs = bytearray(system.rhs)
        self.forced = system.forced_falsified
        # The variables at occurrence 2, in any order, once the degree rule
        # has counted them; arity expansion adds its fresh variables.
        self.twos: list[int] | None = None
        self.checked = 0

    def sizes(self) -> tuple[int, int]:
        return self.n, len(self.lhs)

    def step(self, rule: str, data: dict, pre: tuple[int, int]) -> TraceStep:
        return TraceStep(rule, data, *pre, self.n, len(self.lhs))

    def system(self) -> LinSystem:
        """The store as a unit-weight system; a rule that built a bad row is a bug."""
        m = len(self.lhs)
        try:
            return LinSystem.from_columns(self.n, self.lhs, self.rhs, (1,) * m, self.forced)
        except ValueError as exc:
            raise ContractViolationError(f"a rule built an invalid row: {exc}") from exc


def _apply(system: LinSystem, op: str, *rules) -> tuple[LinSystem, ReductionTrace]:
    """Run store rules in order on one store of the system; trace their steps."""
    store = _Rows(system, op)
    steps: list[TraceStep] = []
    for rule in rules:
        steps += rule(store)
    out = store.system()
    return out, ReductionTrace(tuple(steps), system, out)


# ---------------------------------------------------------------------------
# Occurrence (degree) reduction rules


def _slot_lists(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse "0 1, , 2" as ((0, 1), (), (2,)); as strings, the tables compile in less memory."""
    return tuple(tuple(map(int, item.split())) for item in text.split(","))


# The tie graphs of degrees 5 to 8, as (slots, sorted tie pairs). Slot i < d
# holds occurrence i and two ties, and every further slot (a helper) three
# ties, so one split brings every clone to occurrence 3. Every set S of
# slots has at least min(rows in S, rows outside S) ties leaving it.
_TIE_GRAPHS = {
    5: (5, _slot_lists("0 1, 0 4, 1 2, 2 3, 3 4")),
    6: (8, _slot_lists("0 1, 0 6, 1 7, 2 3, 2 6, 3 7, 4 5, 4 6, 5 7")),
    7: (11, _slot_lists("0 5, 0 7, 1 2, 1 8, 2 9, 3 7, 3 9, 4 9, 4 10, 5 10, 6 8, 6 10, 7 8")),
    8: (14, _slot_lists("0 10, 0 12, 1 2, 1 9, 2 13, 3 11, 3 13, 4 9, 4 10, 5 8, 5 12, 6 7,"
                        " 6 11, 7 8, 8 9, 10 11, 12 13")),
}


class _Plan(NamedTuple):
    """How a variable of one degree splits, and what that costs in all.

    The graph is the `_TIE_GRAPHS` entry on `slots` slots (g = 0), or else
    the product of cliques K_g^t on slots = g^t slots, slot i tied by `mu`
    rows to each slot that differs from it in one base-g digit. Occurrence
    i goes to slot i mod slots. `growth` is the variables and rows that the
    split and every later split of its clones add.
    """

    slots: int
    g: int
    mu: int
    growth: tuple[int, int]


def _is_exact(degree: int, g: int, t: int, mu: int) -> bool:
    """Whether K_g^t with mu ties per pair has min(rows in S, rows outside S) ties leaving every S.

    By Lindsey, no s slots have fewer edges leaving them than the first s in
    lexicographic order; for s <= g^t / 2 (a set and its complement have the
    same cut) that is at least ceil(g / 2) s, and exactly that at s = g^t // 2.
    A clone holds at most ceil(d / g^t) rows, so mu ceil(g / 2) ties per
    clone suffice. With fewer, the first g^t // 2 clones hold more rows than
    ties leave them, and so do the others, except for an even g and
    d = mu (g / 2) g^t + 1: there the first half's cut is d // 2, which
    covers the smaller side of any split of the rows, and every first s
    below half has more than (g / 2) s edges leaving it, so mu (g / 2) s + 1
    ties at least, as many as s clones can hold.
    """
    return mu * -(-g // 2) >= -(-degree // g**t) or (
        g % 2 == 0 and degree == mu * g ** (t + 1) // 2 + 1
    )


def _grown(fresh: int, ties: int, clones) -> tuple[int, int]:
    """(fresh, ties) plus what the splits of each (degree, count) of clones add."""
    for degree, count in clones:
        if count:  # a class of no clones may have the planned degree itself
            dn, dm = _split_growth(degree)
            fresh, ties = fresh + count * dn, ties + count * dm
    return fresh, ties


@cache
def _plan(degree: int) -> _Plan:
    """The split of a variable of degree d >= 4 that adds the fewest rows in all.

    Degrees 5 to 8 take their `_TIE_GRAPHS` entry. Any other takes the
    cheapest exact K_g^t with mu = 1, 2 or 3 ties per pair, for each t up to
    ceil(log2 d) the smallest exact g and the three after it. A clone holds
    d // g^t or one more occurrence and mu t (g - 1) ties; it must end below
    d, so that the splits end, and at 3 or more, as `_stage_sizes`
    counts; mu > 1 is taken only when every clone splits again, and no
    graph has more than 2d slots. A tie goes to the earlier candidate.
    """
    if degree in _TIE_GRAPHS:
        slots, ties = _TIE_GRAPHS[degree]
        return _Plan(slots, 0, 1, (slots - 1, len(ties)))
    top = (degree - 1).bit_length()
    plans = []
    for t, mu in product(range(1, top + 1), (1, 2, 3)):
        # The exact g are those from the smallest on; each has
        # mu (g + 1) g^t / 2 >= d, and none below this start does.
        g = max(2, int((2 * degree / mu) ** (1 / (t + 1))) - 1)
        while not _is_exact(degree, g, t, mu):
            g += 1
        for g in range(g, g + 4):
            slots, (q, heavy) = g**t, divmod(degree, g**t)
            low = q + mu * t * (g - 1)  # the clone degree; `heavy` clones hold one more
            if slots <= 2 * degree and 3 + (mu > 1) <= low < degree - (heavy > 0):
                ties = mu * slots * t * (g - 1) // 2
                growth = _grown(slots - 1, ties, ((low + 1, heavy), (low, slots - heavy)))
                plans.append(_Plan(slots, g, mu, growth))
    return min(plans, key=lambda plan: plan.growth[1])


@cache
def _ties(degree: int) -> tuple[tuple[int, int], ...]:
    """The sorted slot pairs of `_plan(degree)`'s graph; the mu copies of a pair are adjacent.

    Cached like the plan, so a process keeps the pairs of each degree it has split.
    """
    if degree in _TIE_GRAPHS:
        return _TIE_GRAPHS[degree][1]
    slots, g, mu, _ = _plan(degree)
    places = [g**i for i in range(slots.bit_length()) if g**i < slots]
    return tuple(sorted((a, a + k * p) for a in range(slots) for p in places
                        for k in range(1, g - a // p % g) for _ in range(mu)))


def _split(store: _Rows, holders: defaultdict, variable: int) -> TraceStep:
    """Split one variable of degree d >= 4 into clones joined by tie rows, in place.

    The variable and fresh clones sit on the slots of the `_plan(d)`
    graph, each edge an rhs-0 tie row, and occurrence i goes to clone i
    mod slots. For d = 4 (the 4-cycle K_2^2) to 8 every clone ends at
    degree 3; above, a clone may end above 3, and the caller splits it in
    turn.
    `reduce_degree5plus` shows why the split is exact.

    Only the variable's rows and the new tie rows are touched; each clone is
    fresh, so it sorts last in its row, and its entry in `holders` (the
    `variable_rows` index) is made as its rows are added. The step records
    the variable and its rows as they were before the split, the only rows
    map-back has to evaluate; the clones are the variable and the step's
    fresh range pre_n..post_n - 1.
    """
    lhs_column, rhs_column = store.lhs, store.rhs
    ids = holders[variable]
    degree = len(ids)
    slots, ties = _plan(degree).slots, _ties(degree)
    pre = store.sizes()
    n = store.n
    clones = (variable, *range(n, n + slots - 1))
    data = {"variable": variable, "rows": tuple((lhs_column[j], rhs_column[j]) for j in ids)}
    store.n = n + slots - 1
    holders[variable] = []
    for clone, j in zip(cycle(clones), ids):
        if clone != variable:
            lhs = lhs_column[j]
            i = lhs.index(variable)
            lhs_column[j] = lhs[:i] + lhs[i + 1 :] + (clone,)
        holders[clone].append(j)
    # Clones ascend with their slots, so each tie pair is stored sorted.
    for a, b in ties:
        x, y = clones[a], clones[b]
        holders[x].append(len(lhs_column))
        holders[y].append(len(lhs_column))
        lhs_column.append((x, y))
        rhs_column.append(0)
    return store.step("degree4" if degree == 4 else "degree5plus", data, pre)


def _split_growth(degree: int) -> tuple[int, int]:
    """Variables and rows the degree rules add to bring one variable to <= 3.

    This is the `_plan` growth: the split's fresh clones and ties, then
    what the splits of its clones add in turn.
    """
    return _plan(degree).growth if degree > 3 else (0, 0)


def _normalize_degrees(store: _Rows) -> list[TraceStep]:
    """Split the worst variable, lowest index first, until every d(x) <= 3.

    One occurrence count finds the variables that must split; with none
    above 3 there are no steps and no row index. Otherwise one
    `variable_rows` index serves every split. The count also names the
    variables at occurrence 2 for the store's `twos`: no split touches them.
    """
    occ = occurrences(store.lhs)
    store.twos = [v for v, c in occ.items() if c == 2]
    # A variable's count changes only when it is split, which pops its one
    # heap entry first, so no entry goes stale.
    heap = [(-c, v) for v, c in occ.items() if c > 3]
    if not heap:
        return []
    heapq.heapify(heap)
    holders = variable_rows(store.lhs)
    steps: list[TraceStep] = []
    while heap:
        variable = heapq.heappop(heap)[1]
        step = _split(store, holders, variable)
        steps.append(step)
        for c in (variable, *range(step.pre_n, step.post_n)):
            if len(holders[c]) > 3:
                heapq.heappush(heap, (-len(holders[c]), c))
    return steps


def _split_step(system: LinSystem, variable: int, rule: str) -> LinSystem:
    store = _Rows(system, f"{rule} rule")
    holders = variable_rows(store.lhs)
    degree = len(holders[variable])
    if (degree != 4) if rule == "degree4" else (degree < 5):
        raise GadgetError(f"variable {variable} occurs {degree} times; {rule} does not apply")
    _split(store, holders, variable)
    return store.system()


def reduce_degree4(system: LinSystem, variable: int) -> LinSystem:
    """Split a variable occurring 4 times into a 4-cycle of fresh variables."""
    return _split_step(system, variable, "degree4")


def reduce_degree5plus(system: LinSystem, variable: int) -> LinSystem:
    """Split a variable occurring d >= 5 times into clones joined by tie rows.

    For d = 5 to 8 the ties are the `_TIE_GRAPHS` entry (a 5-cycle for
    d = 5): each clone holds at most one occurrence and ends at degree 3.
    Above 8 they are the `_plan(d)` graph, a product of cliques K_g^t with
    mu ties per adjacent clone pair and occurrence i on clone i mod g^t.
    Take any assignment, and let S be the clones at 1. Flipping S makes
    every tie leaving S hold, and costs at most the rows S holds; flipping
    the others costs at most the rows they hold. So if every S has
    cut(S) >= min(rows in S, rows outside S), some uniform clone value is
    optimal. Every `_TIE_GRAPHS` entry was checked on every S. In K_g^t no
    s clones have fewer edges leaving them than the first s in
    lexicographic order (Lindsey), and `_is_exact` checks that many ties
    against the most rows any s clones, or the others, can hold; the
    4-cycle of `reduce_degree4` is K_2^2.
    """
    return _split_step(system, variable, "degree5plus")


def normalize_max_degree3(system: LinSystem) -> tuple[LinSystem, ReductionTrace]:
    """Apply the degree rules, worst variable first, until every d(x) <= 3.

    Raises CapacityError, before building anything, when the output would
    exceed MAX_UNIT_EQUATIONS equations.
    """
    predicted = _predict_sizes(system, 2)
    out, trace = _apply(system, "degree normalization", _normalize_degrees)
    _check_built(out, predicted)
    return out, trace


# ---------------------------------------------------------------------------
# The gadgets that replace or pad rows, and their one writer


# Every gadget, as (k, rows, fresh, rhs rows). Slot i < k holds source
# variable i and slot k + i fresh variable i; each row is sorted and ends in
# a fresh slot. The rows in rhs rows take the source row's rhs, the others
# rhs 0. Fresh variable i is the XOR of the slots in fresh[i], slot -1 being
# that rhs: so completed, a gadget falsifies as many rows as its source
# loses (a pad none), and no completion falsifies fewer.
# - arity1, arity2 replace a row of arity 1 or 2, its variables the sources;
# - pair replaces the two copies of a repeated row, its variables the sources;
# - pad6, pad3 take six or three variables of occurrence 2 to occurrence 3.
_GADGETS = {
    "arity1": (1, _slot_lists("0 1 2, 1 3 4, 2 3 4"), _slot_lists("0 -1, , , "), (0,)),
    "arity2": (2, _slot_lists("0 2 3, 1 2 3"), _slot_lists("0, "), (1,)),
    "pair": (3, _slot_lists("0 1 5, 3 4 5, 2 3 4, 0 1 8, 6 7 8, 2 6 7, 3 5 7, 4 6 8"),
             _slot_lists("0, 1, 0 1 -1, 0, 1, 0 1 -1"), range(8)),
    "pad3": (3, _slot_lists("0 1 3, 2 4 5, 3 4 6, 3 7 8, 4 5 7, 5 6 8, 6 7 8"),
             _slot_lists("0 1, , 2, 0 1, 2, 0 1 2"), ()),
    "pad6": (6, _slot_lists("0 1 6, 2 3 7, 4 5 8, 6 9 10, 6 9 11, 7 10 12, 7 11 12, 8 10 13,"
                            " 8 11 13, 9 12 13"),
             _slot_lists("0 1, 2 3, 4 5, 2 3 4 5, 0 1 2 3 4 5, 0 1 2 3 4 5, 0 1 4 5, 0 1 2 3"), ()),
}


def _write(store: _Rows, name: str, sources: tuple[int, ...], rhs_bits: bytes) -> tuple:
    """Append one copy of gadget `name` per rhs bit, each on the next k sources.

    Each copy takes the next f fresh variables. Returns the (name, sources,
    rhs_bits) group that the forward map completes.
    """
    if not rhs_bits:
        return name, sources, rhs_bits
    k, rows, fresh, rhs_rows = _GADGETS[name]
    f, n, count = len(fresh), store.n, len(rhs_bits)
    store.n += f * count
    # Column s holds slot s of every copy; each row zips its three columns,
    # and reading the zips in turn writes one copy at a time. A fresh column
    # is a list, so the rows holding a fresh variable share one int object.
    columns = [sources[s::k] for s in range(k)] + [list(range(n + i, store.n, f)) for i in range(f)]
    store.lhs += chain.from_iterable(zip(*[zip(*map(columns.__getitem__, r)) for r in rows]))
    bits = bytearray(len(rows) * count)
    for r in rhs_rows:
        bits[r :: len(rows)] = rhs_bits
    store.rhs += bits
    return name, sources, rhs_bits


@cache  # built on first use, so a run that writes no such gadget does not hold it
def _completions(name: str) -> tuple[tuple[int, ...], dict]:
    """The slots that gadget `name`'s fresh values read, and each value of them mapped to those."""
    fresh = _GADGETS[name][2]
    read = tuple(sorted(set(chain.from_iterable(fresh))))
    table = {}
    for bits in product((0, 1), repeat=len(read)):
        value = dict(zip(read, bits))
        table[bits] = tuple(sum(map(value.__getitem__, xor)) & 1 for xor in fresh)
    return read, table


# ---------------------------------------------------------------------------
# Arity expansion to exactly three variables per equation


def _expand_arity(store: _Rows) -> list[TraceStep]:
    """Keep the arity-3 rows, then write an arity2 gadget per arity-2 row, then arity1."""
    pre = store.sizes()
    rows = {a: ([], bytearray()) for a in (3, 2, 1)}
    for lhs, rhs in zip(store.lhs, store.rhs):
        if (held := rows.get(len(lhs))) is None:
            raise GadgetError(f"arity {len(lhs)} equation cannot be expanded to arity 3")
        held[0].append(lhs)
        held[1].append(rhs)
    store.lhs, store.rhs = rows.pop(3)
    groups = tuple(_write(store, f"arity{a}", tuple(chain.from_iterable(lhs)), bytes(rhs))
                   for a, (lhs, rhs) in rows.items())
    if store.twos is not None:  # every fresh variable of both gadgets occurs twice
        store.twos += range(pre[0], store.n)
    return [store.step("arity-expand", {"groups": groups}, pre)]


def expand_arity_to_3(system: LinSystem) -> LinSystem:
    """Pad arity-1 and arity-2 equations to arity 3 with fresh variables.

    A satisfied source equation extends to satisfy the whole gadget; a
    falsified one forces exactly one falsified gadget equation, so the
    optimum is preserved.
    """
    return _apply(system, "arity expansion", _expand_arity)[0]


# ---------------------------------------------------------------------------
# Occurrence exactly three


def _remove_always_satisfied_step(system: LinSystem) -> tuple[LinSystem, TraceStep]:
    """Drop the rows `singleton_cascade` finds, whatever their weights.

    Setting its witness last satisfies each one. They are logged as (lhs,
    rhs, witness) rows; with none, the input is returned as it is. After
    this every variable occurs in 0 or at least 2 rows.
    """
    lhs_column, rhs_column = system.lhs, system.rhs
    deleted = singleton_cascade(lhs_column)
    removed = tuple((lhs_column[j], rhs_column[j], w) for j, w in deleted)
    post = system
    if deleted:
        live = [True] * len(lhs_column)
        for j, _ in deleted:
            live[j] = False
        columns = (compress(c, live) for c in (lhs_column, rhs_column, system.weights))
        post = LinSystem.from_columns(system.n, *columns, system.forced_falsified)
    return post, _sized_step("always-satisfied-removal", {"removed": removed}, system, post)


def _enforce_degree(store: _Rows) -> list[TraceStep]:
    """Pad the occurrence-2 variables, ascending, by pad6 gadgets and a last pad3 if need be.

    The variables are the store's `twos` when the degree rule counted them,
    else a count of the rows names them. The step data is {"groups": (the
    pad6 group, the pad3 group)} as `_write` returns them.
    """
    twos = store.twos
    if twos is None:
        twos = [v for v, c in occurrences(store.lhs).items() if c == 2]
    deg2 = tuple(sorted(twos))
    if len(deg2) % 3:
        raise ContractViolationError(
            f"{len(deg2)} variables of occurrence 2; expected a multiple of 3"
        )
    pre = store.sizes()
    cut = len(deg2) - len(deg2) % 6
    groups = (
        _write(store, "pad6", deg2[:cut], bytes(cut // 6)),
        _write(store, "pad3", deg2[cut:], bytes(len(deg2) % 6 // 3)),
    )
    return [store.step("degree2-triplets", {"groups": groups}, pre)]


def enforce_degree_exactly3(system: LinSystem) -> tuple[LinSystem, ReductionTrace]:
    """Make every used variable occur exactly three times.

    The input has arity exactly 3 and occurrence at most 3. Always-satisfiable
    equations (those with a singly-occurring variable) are removed first, as
    in `to_eq3_eq3`; the remaining occurrence-2 variables, ascending, are
    tied in groups of six to eight fresh variables by ten distinct rhs-0
    rows, and a last group of three to six by seven. Every value of a group
    has one completion satisfying its rows, so the optimum is unchanged.
    """
    if set(map(len, system.lhs)) - {3}:
        raise GadgetError("arity must be exactly 3; run arity expansion first")
    if max(occurrences(system.lhs).values(), default=0) > 3:
        raise GadgetError("occurrence above 3; run degree normalization first")
    pruned, removal = _remove_always_satisfied_step(system)
    out, trace = _apply(pruned, "degree enforcement", _enforce_degree)
    return out, ReductionTrace((removal, *trace.steps), system, out)


# ---------------------------------------------------------------------------
# Duplicate elimination


def _deduplicate(store: _Rows) -> list[TraceStep]:
    """Replace each repeated lhs in one pass over the rows; see `deduplicate_equations`.

    With no repeated lhs (a set of the column tells) the store is left as
    it is, and `checked` covers every row. Otherwise the lhs column is
    counted once; a row whose lhs occurs once is kept; the first copy of a
    repeated lhs is checked (at most three copies, and a triple's variables
    in no other row) and is dropped, to become a pair gadget or a logged
    triple; a later copy must agree with the first copy's rhs and is
    dropped. The pair gadgets, one per row with
    two copies, follow the kept rows; the step data is {"groups": (the pair
    group,), "triples": ((lhs, rhs), ...)}.
    """
    lhs_column, rhs_column = store.lhs, store.rhs
    if set(map(len, lhs_column)) - {3}:
        raise GadgetError("deduplication expects arity exactly 3")
    pre = store.sizes()
    copied: list[int] = []  # the variables of each row with two copies, in turn
    copied_rhs = bytearray()
    triples = []
    if len(set(lhs_column)) != len(lhs_column):
        counts = Counter(lhs_column)
        occ = occurrences(lhs_column)
        first_rhs: dict[tuple[int, ...], int] = {}  # the rhs of each repeated lhs seen
        out_lhs: list = []
        out_rhs = bytearray()
        for lhs, b in zip(lhs_column, rhs_column):
            count = counts[lhs]
            if count == 1:
                out_lhs.append(lhs)
                out_rhs.append(b)
                continue
            if lhs in first_rhs:
                if first_rhs[lhs] != b:
                    raise ContractViolationError(f"equations with lhs {lhs} disagree on rhs")
                continue
            first_rhs[lhs] = b
            if count > 3:
                raise ContractViolationError(f"{count} copies of lhs {lhs}; at most 3 possible")
            if count == 3:
                for v in lhs:
                    if occ[v] != 3:
                        raise ContractViolationError(
                            f"variable {v} of a triple copy occurs elsewhere"
                        )
                triples.append((lhs, b))
                continue
            copied += lhs
            copied_rhs.append(b)
        store.lhs, store.rhs = out_lhs, out_rhs
    else:
        store.checked = len(lhs_column)
    groups = (_write(store, "pair", tuple(copied), bytes(copied_rhs)),)
    return [store.step("deduplicate", {"groups": groups, "triples": tuple(triples)}, pre)]


def deduplicate_equations(system: LinSystem) -> tuple[LinSystem, ReductionTrace]:
    """Remove duplicate left-hand sides without changing the optimum.

    Three identical copies only involve variables occurring nowhere else, so
    the copies are always satisfiable and simply removed. Two copies are
    replaced by the eight-equation gadget over six fresh variables. In the
    pipeline the copies come from the input alone: no gadget writes one.
    The rows are read once, in order; the ContractViolationError of an
    input that breaks these rules names the first fault that pass meets.
    """
    return _apply(system, "deduplication", _deduplicate)


# ---------------------------------------------------------------------------
# Full pipeline


def _resolve_opposing_step(system: LinSystem) -> tuple[LinSystem, TraceStep]:
    """Fold pairs L=0 / L=1 with the same lhs into the forced ledger.

    Every assignment falsifies exactly one side of such a pair, costing at
    least the lighter weight; what remains is a single equation carrying the
    weight difference. Pointwise exact, so both assignment maps are the
    identity. The input is normalized: each (lhs, rhs) occurs once and the
    rows are sorted, so a pair is two adjacent rows. With no pair, the input
    is returned as it is. Duplicate-elimination later relies on this having
    run.
    """
    lhs_column = system.lhs
    pairs = list(compress(range(len(lhs_column)), map(eq, lhs_column, lhs_column[1:])))
    post = system
    if pairs:
        weights = list(system.weights)
        forced = system.forced_falsified
        for j in pairs:
            lighter = min(weights[j], weights[j + 1])
            forced += lighter
            weights[j] -= lighter
            weights[j + 1] -= lighter
        columns = (compress(c, weights) for c in (lhs_column, system.rhs, weights))
        post = LinSystem.from_columns(system.n, *columns, forced)
    return post, _sized_step("opposing-pairs", {}, system, post)


def _compact(store: _Rows) -> list[TraceStep]:
    """Check the (=3,=3) shape and drop unused variable slots.

    Counts taken from the rows show every kept variable occurring exactly
    three times and within 0..n - 1. The row lengths show every row holding
    three, and the set of left-hand sides shows that no two coincide; these
    two run only when a row lies past the `checked` count. The
    rows are renumbered only when a slot is empty, through the kept
    variables alone, so no pass runs over the n slots; only then does the
    step record them, as "kept". Building the output checks every row's
    order, range and rhs.
    """
    pre = store.sizes()
    lhs, n = store.lhs, store.n
    occ = occurrences(lhs)
    if set(occ.values()) - {3}:
        bad = min(v for v, c in occ.items() if c != 3)
        raise ContractViolationError(
            f"pipeline output has variable {bad} occurring {occ[bad]} times, not 3"
        )
    if len(lhs) > store.checked:
        if set(map(len, lhs)) - {3}:
            raise ContractViolationError("pipeline output has a row that is not arity-3")
        if len(set(lhs)) != len(lhs):
            raise ContractViolationError("pipeline output has duplicate left-hand sides")
    if occ and min(occ) < 0:
        raise ContractViolationError(f"pipeline output has variable {min(occ)} < 0")
    if occ and max(occ) >= n:
        raise ContractViolationError(f"pipeline output has variable {max(occ)} >= n={n}")
    if len(occ) == n:
        return [store.step("compact", {}, pre)]
    kept = tuple(sorted(occ))
    remap = dict(zip(kept, range(len(kept))))
    store.lhs = [(remap[x], remap[y], remap[z]) for x, y, z in lhs]
    store.n = len(kept)
    return [store.step("compact", {"kept": kept}, pre)]


# The stages after normalization, in pipeline order, with the store rules
# that build each; `_predict_sizes` sizes them, and a target runs a prefix.
_STAGES = (
    ("unit expansion", ()),
    ("degree splitting", (_normalize_degrees,)),
    ("arity expansion", (_expand_arity,)),
    ("the (=3,=3) finish", (_enforce_degree, _deduplicate, _compact)),
)

# The number of stages each `maxlin2 reduce --target` runs.
_TARGET_STAGES = {"deg3": 2, "arity3": 3, "eq3eq3": 4}


def _predict_sizes(system: LinSystem, stages: int) -> tuple[int, int]:
    """(n, m) after the first `stages` of `_STAGES`, exactly.

    This is the one size prediction: the runner and `normalize_max_degree3`
    check what they build against it. A stage predicted above
    MAX_UNIT_EQUATIONS rows raises CapacityError. The stages are sized one
    at a time, and none past a refused one. Unit expansion comes first, and
    no weighted degree exceeds the total weight, so no degree above
    MAX_UNIT_EQUATIONS is ever planned.
    """
    for (stage, _), (n, m) in zip(_STAGES[:stages], _stage_sizes(system)):
        if m > MAX_UNIT_EQUATIONS:
            raise CapacityError(
                f"{stage} would build {m} equations, over {MAX_UNIT_EQUATIONS}"
            )
    return n, m


def _stage_sizes(system: LinSystem):
    """Yield (n, m) after each stage of `_STAGES` in turn.

    The weighted degree profile of `system`, counted over its rows only,
    gives every size. The first three stages are exact on any input they
    accept; the finish needs `system` normalized and through
    always-satisfied-removal, as the pipeline runs it:
    - every gadget adds the rows and fresh variables of its `_GADGETS`
      entry, less the source rows it replaces;
    - every clone ends at occurrence 3, every fresh variable of arity
      expansion at 2 and no variable at 1, so the pads take the variables
      of occurrence 2 six at a time, and a last three;
    - a copied row reaches deduplication iff it has weight 2 and none of its
      variables is split (a weight-3 one would have been removed);
    - a (=3,=3) output has as many variables as rows.
    """
    yield system.n, system.total_weight
    # Every row counts once at C speed; only the heavier rows add the rest.
    lhs_column, weights = system.lhs, system.weights
    degree = occurrences(lhs_column)
    arity_weight = Counter(map(len, lhs_column))
    heavy = list(compress(zip(lhs_column, weights), map(ne, weights, repeat(1))))
    for lhs, weight in heavy:
        arity_weight[len(lhs)] += weight - 1
        for v in lhs:
            degree[v] += weight - 1
    profile = Counter(degree.values())
    dn, dm = _grown(0, 0, profile.items())
    n, m = system.n + dn, system.total_weight + dm
    yield n, m
    n2, m2 = _gadget_growth("arity2", arity_weight[2] + dm, 1)  # every tie has arity 2
    n1, m1 = _gadget_growth("arity1", arity_weight[1], 1)
    n, m = n + n2 + n1, m + m2 + m1
    yield n, m
    sixes, rest = divmod(profile[2] + n2 + n1, 6)
    pairs = sum(len(lhs) == 3 and weight == 2 and max(degree[v] for v in lhs) <= 3
                for lhs, weight in heavy)
    for name, count, replaced in (("pad6", sixes, 0), ("pad3", rest // 3, 0), ("pair", pairs, 2)):
        m += _gadget_growth(name, count, replaced)[1]
    yield m, m


def _gadget_growth(name: str, count: int, replaced: int) -> tuple[int, int]:
    """Variables and rows that `count` gadgets `name` add, each in place of `replaced` rows."""
    _, rows, fresh, _ = _GADGETS[name]
    return len(fresh) * count, (len(rows) - replaced) * count


def _check_built(out: LinSystem, predicted: tuple[int, int]) -> None:
    built = (out.n, len(out.lhs))
    if built != predicted:
        raise ContractViolationError(f"the pipeline built {built}, predicted {predicted}")


def to_eq3_eq3(system: LinSystem) -> tuple[LinSystem, ReductionTrace]:
    """Full pipeline to a unit-weight (=3,=3) system with distinct lhs.

    Stages: normalize, fold opposing same-lhs pairs into the forced ledger,
    drop always-satisfiable rows, expand weights to unit copies, cut
    occurrences down to 3, pad arities up to 3, enforce occurrence exactly
    3, deduplicate, and finally drop unused variable slots. Each stage
    preserves the minimum falsified weight, so the composition does too.
    From the degree rules on, the stages rewrite one row store; the last
    one checks the (=3,=3) shape before the output's columns are built.
    The output is sized exactly before unit expansion: one above
    MAX_UNIT_EQUATIONS rows raises CapacityError. This is
    `reduce_to_target(system, "eq3eq3")`.
    """
    return reduce_to_target(system, "eq3eq3")


def reduce_to_target(system: LinSystem, target: str) -> tuple[LinSystem, ReductionTrace]:
    """The reduction of `maxlin2 reduce --target`, one pipeline for every target.

    Every target normalizes, folds opposing pairs, drops always-satisfiable
    rows, sizes its output and expands weights to unit copies, and its trace
    starts at the caller's input. Then "deg3" cuts occurrences down to 3,
    "arity3" also pads arities up to 3, and "eq3eq3" (`to_eq3_eq3`) also
    finishes the (=3,=3) shape. Only "deg3" accepts arity above 3. An output
    predicted above MAX_UNIT_EQUATIONS rows raises CapacityError before unit
    expansion, and any other target raises ValueError before any work.
    """
    if target not in _TARGET_STAGES:
        raise ValueError(f"unknown target {target!r}; expected one of {', '.join(_TARGET_STAGES)}")
    stages = _STAGES[: _TARGET_STAGES[target]]
    if target != "deg3" and max(map(len, system.lhs), default=0) > 3:
        raise InstanceClassError(f"{target} input must have arity at most 3")
    s0 = normalize(system)
    s1, opposing = _resolve_opposing_step(s0)
    s2, removal = _remove_always_satisfied_step(s1)
    predicted = _predict_sizes(s2, len(stages))
    s3 = expand_unit_weights(s2)
    rules = [rule for _, stage_rules in stages for rule in stage_rules]
    out, trace = _apply(s3, "the unit-expanded input", *rules)
    _check_built(out, predicted)
    steps = (
        _sized_step("normalize", {}, system, s0),
        opposing,
        removal,
        _sized_step("unit-expand", {}, s2, s3),
        *trace.steps,
    )
    return out, ReductionTrace(steps, system, out)

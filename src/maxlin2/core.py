"""Weighted systems of linear equations over GF(2).

A system is a collection of equations ``x_{i1} + ... + x_{ir} = b`` (sum over
GF(2)) with positive integer weights. The goal everywhere in this package is
to minimize the total weight of falsified equations, equivalently to maximize
the satisfied weight.

All types are immutable values; the operations below are pure functions.
A LinSystem holds its rows as three columns -- lhs tuples, rhs bytes and
weights -- checked once when it is built. ``system.equations`` is a read-only
view that builds an Equation only when a row is read, so the operations here
read the columns and build none.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

# Weights are conceptually bounded machine integers; the total weight of a
# system is checked against this bound at construction time.
MAX_TOTAL_WEIGHT = 2**63 - 1

# Unit expansion builds one equation per unit of weight; above this many it
# would exhaust memory long before it finished, so it is refused up front.
MAX_UNIT_EQUATIONS = 10**7


class MaxLin2Error(Exception):
    """Base class for errors raised by this package."""


class DimensionError(MaxLin2Error):
    """An assignment's length does not match the system's variable count."""


class CapacityError(MaxLin2Error):
    """An exact procedure was asked to exceed its configured size limit."""


class InstanceClassError(MaxLin2Error):
    """The instance violates the structural restriction a solver requires."""


class ContractViolationError(MaxLin2Error):
    """An internal invariant did not hold; indicates a bug or misuse."""


def _check_rows(lhs, rhs, weights, n: float = math.inf) -> None:
    """Raise ValueError unless every rhs is 0 or 1, every weight >= 1 and
    every lhs strictly ascending, nonnegative and below n."""
    if rhs.count(0) + rhs.count(1) != len(rhs):
        bad = next(b for b in rhs if b not in (0, 1))
        raise ValueError(f"rhs must be 0 or 1, got {bad!r}")
    if weights and min(weights) < 1:
        bad = next(w for w in weights if w < 1)
        raise ValueError(f"weight must be >= 1, got {bad!r}")
    # One plain loop per row checks sign, order and range: it allocates
    # nothing, and this runs for every row of every system built.
    for row in lhs:
        prev = -1
        for v in row:
            if v <= prev:
                if prev < 0:
                    raise ValueError(f"negative variable index in {row}")
                raise ValueError(f"lhs must be strictly ascending, got {row}")
            prev = v
        if prev >= n:
            raise ValueError(f"variable {prev} out of range for n={n}")


@dataclass(frozen=True, slots=True)
class Equation:
    """One weighted equation: XOR of the lhs variables equals rhs.

    lhs holds distinct variable indices in strictly ascending order. An empty
    lhs is a constant equation; normalize() removes such equations.
    """

    lhs: tuple[int, ...]
    rhs: int
    weight: int = 1

    def __post_init__(self) -> None:
        _check_rows((self.lhs,), (self.rhs,), (self.weight,))

    @classmethod
    def make(cls, variables, rhs: int, weight: int = 1) -> "Equation":
        """Build an equation from variable indices given in any order."""
        vs = tuple(sorted(variables))
        if any(b == a for a, b in zip(vs, vs[1:])):
            raise ValueError(f"duplicate variable in lhs: {tuple(variables)}")
        return cls(vs, rhs, weight)

    @property
    def arity(self) -> int:
        return len(self.lhs)


class EquationsView(Sequence):
    """Read-only sequence of a system's rows as Equation objects.

    len and truth read the lhs column. Indexing, slicing and iteration build
    equal Equation objects on access and keep none of them. The view equals
    the tuple of those equations, and another view with the same columns.
    """

    __slots__ = ("_system",)

    def __init__(self, system: "LinSystem") -> None:
        self._system = system

    def __len__(self) -> int:
        return len(self._system.lhs)

    def __getitem__(self, index):
        s = self._system
        if isinstance(index, slice):
            return tuple(map(Equation, s.lhs[index], s.rhs[index], s.weights[index]))
        return Equation(s.lhs[index], s.rhs[index], s.weights[index])

    def __iter__(self):
        s = self._system
        return map(Equation, s.lhs, s.rhs, s.weights)

    def __eq__(self, other):
        if isinstance(other, EquationsView):
            a, b = self._system, other._system
            return (a.lhs, a.rhs, a.weights) == (b.lhs, b.rhs, b.weights)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, slots=True, init=False)
class LinSystem:
    """A weighted equation system over variables 0..n-1, held as columns.

    Row j is ``lhs[j]`` (a tuple of strictly ascending variable indices),
    ``rhs[j]`` (a byte, 0 or 1) and ``weights[j]`` (an int >= 1). The
    columns are checked once, when the system is built, by _check_rows, as
    Equation checks itself; ``equations`` is a read-only view that builds Equation
    objects only when a row is read.

    forced_falsified is a weight ledger for contradictory constant equations
    (empty lhs, rhs 1) removed by normalize(); it counts toward the falsified
    weight of every assignment but is not part of total_weight.
    """

    n: int
    lhs: tuple[tuple[int, ...], ...]
    rhs: bytes
    weights: tuple[int, ...]
    forced_falsified: int

    def __init__(self, n: int, equations=(), forced_falsified: int = 0) -> None:
        eqs = tuple(equations)
        self._set_columns(
            n,
            tuple([e.lhs for e in eqs]),
            bytes([e.rhs for e in eqs]),
            tuple([e.weight for e in eqs]),
            forced_falsified,
        )

    @classmethod
    def from_columns(
        cls, n: int, lhs, rhs, weights, forced_falsified: int = 0
    ) -> "LinSystem":
        """Build a system from its columns, checked in one pass.

        Row j is lhs[j], a tuple of strictly ascending indices below n;
        rhs[j], 0 or 1 (rhs is bytes-like or an iterable of ints); and
        weights[j], an int >= 1.
        """
        system = cls.__new__(cls)
        system._set_columns(n, lhs, rhs, weights, forced_falsified)
        return system

    def _set_columns(self, n, lhs, rhs, weights, forced_falsified) -> None:
        lhs, rhs, weights = tuple(lhs), bytes(rhs), tuple(weights)
        if n < 0:
            raise ValueError(f"variable count must be >= 0, got {n}")
        if forced_falsified < 0:
            raise ValueError("forced_falsified must be >= 0")
        if not len(lhs) == len(rhs) == len(weights):
            raise ValueError(
                f"column lengths differ: {len(lhs)}, {len(rhs)}, {len(weights)}"
            )
        _check_rows(lhs, rhs, weights, n)
        if sum(weights) > MAX_TOTAL_WEIGHT:
            raise OverflowError("total system weight exceeds the supported bound")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "forced_falsified", forced_falsified)

    @classmethod
    def build(cls, n: int, rows, forced_falsified: int = 0) -> "LinSystem":
        """Build a system from (variables, rhs) or (variables, rhs, weight) rows."""
        return cls(n, [Equation.make(*row) for row in rows], forced_falsified)

    @property
    def equations(self) -> EquationsView:
        return EquationsView(self)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)


@dataclass(frozen=True)
class InstanceProfile:
    """Structural summary of a system: arity/occurrence bounds and flags."""

    max_arity: int
    max_occurrence: int
    num_equations: int
    num_variables: int
    total_weight: int
    unit_weights: bool
    distinct_lhs: bool


def evaluate(system: LinSystem, assignment) -> tuple[int, int]:
    """Return (satisfied_weight, falsified_weight) under the assignment.

    The falsified side includes the forced_falsified ledger, so
    satisfied + falsified == total_weight + forced_falsified.
    """
    weights = system.weights
    lost = sum([weights[j] for j in falsified_indices(system, assignment)])
    return system.total_weight - lost, system.forced_falsified + lost


def _check_assignment(assignment, n: int) -> None:
    """Raise DimensionError unless the assignment has n entries, and
    ValueError naming the first entry that is not 0 or 1; copies nothing."""
    if len(assignment) != n:
        raise DimensionError(f"assignment length {len(assignment)} != variable count {n}")
    ones = n - assignment.count(0)  # an all-zero assignment needs one count
    if ones and assignment.count(1) != ones:
        bad = next(i for i, v in enumerate(assignment) if v not in (0, 1))
        raise ValueError(f"assignment entry {bad} must be 0 or 1, got {assignment[bad]!r}")


def falsified_indices(system: LinSystem, assignment) -> tuple[int, ...]:
    """Indices of the equations falsified by the assignment, a sequence of
    system.n entries, each 0 or 1."""
    _check_assignment(assignment, system.n)
    out = []
    for j, (lhs, parity) in enumerate(zip(system.lhs, system.rhs)):
        for v in lhs:
            parity ^= assignment[v]
        if parity:
            out.append(j)
    return tuple(out)


def normalize(system: LinSystem) -> LinSystem:
    """Canonical form: merge duplicate (lhs, rhs), drop constants, sort.

    Equations 0=0 are dropped outright; 0=1 equations move their weight into
    the forced_falsified ledger. Output is sorted by (lhs, rhs).
    """
    kept: dict[tuple[tuple[int, ...], int], int] = {}
    forced = system.forced_falsified
    for lhs, rhs, weight in zip(system.lhs, system.rhs, system.weights):
        if not lhs:
            if rhs == 1:
                forced += weight
            continue
        key = (lhs, rhs)
        kept[key] = kept.get(key, 0) + weight
    keys = sorted(kept)
    return LinSystem.from_columns(
        system.n,
        [lhs for lhs, _ in keys],
        [rhs for _, rhs in keys],
        [kept[key] for key in keys],
        forced,
    )


def expand_unit_weights(system: LinSystem) -> LinSystem:
    """Replace each weight-w equation by w identical unit-weight copies.

    Raises CapacityError, before building anything, when the total weight
    exceeds MAX_UNIT_EQUATIONS.
    """
    total = system.total_weight
    if total > MAX_UNIT_EQUATIONS:
        raise CapacityError(
            f"unit expansion of total weight {total} exceeds "
            f"{MAX_UNIT_EQUATIONS} equations"
        )
    lhs: list[tuple[int, ...]] = []
    rhs = bytearray()
    for row, b, weight in zip(system.lhs, system.rhs, system.weights):
        lhs += [row] * weight
        rhs += bytes((b,)) * weight
    return LinSystem.from_columns(
        system.n, lhs, rhs, (1,) * total, system.forced_falsified
    )


def occurrences(lhs) -> Counter:
    """The number of rows holding each variable that some row holds, given the lhs column."""
    return Counter(chain.from_iterable(lhs))


def occurrence_counts(system: LinSystem) -> list[int]:
    """Number of equations containing each variable 0..n-1 (copies counted)."""
    counts = [0] * system.n
    for v, c in occurrences(system.lhs).items():
        counts[v] = c
    return counts


def variable_rows(lhs) -> defaultdict[int, list[int]]:
    """Ids of the rows holding each variable that some row holds, ascending,
    given the lhs column; a variable no row holds reads as an empty list."""
    rows: defaultdict[int, list[int]] = defaultdict(list)
    for j, row in enumerate(lhs):
        for v in row:
            rows[v].append(j)
    return rows


def holders(lhs) -> tuple[list[int], list[int]]:
    """(count, holder) of the lhs column, two lists spanning only up to the
    largest variable a row holds: count[v] rows hold v, and holder[v] is the
    XOR of their ids. For a variable in one row that is the row's id; for
    one in two rows, either id XOR holder[v] is the other."""
    span = max(chain.from_iterable(lhs), default=-1) + 1
    count = [0] * span
    holder = [0] * span
    for j, row in enumerate(lhs):
        for v in row:
            count[v] += 1
            holder[v] ^= j
    return count, holder


def singleton_cascade(lhss) -> list[tuple[int, int]]:
    """Rows deleted by exhaustive singleton pruning, as (row, witness) pairs.

    `lhss` lists each row's variables. A row holding a variable that occurs
    in no other live row is deleted, cascading; the lowest-indexed singleton
    variable is processed first. Occurrence counts and the `holders` XOR of
    the live rows are updated per deletion and the current singletons kept
    in a min-heap, so the whole cascade costs O(size · log size). When no
    variable occurs once, one occurrence count settles it.
    """
    if 1 not in occurrences(lhss).values():
        return []
    occ, holder = holders(lhss)
    # Counts only fall, so each variable enters the heap at most once; an
    # entry whose count has since dropped to 0 is skipped.
    singletons = [v for lhs in lhss for v in lhs if occ[v] == 1]
    heapq.heapify(singletons)
    deleted: list[tuple[int, int]] = []
    while singletons:
        witness = heapq.heappop(singletons)
        if occ[witness] != 1:
            continue
        j = holder[witness]
        deleted.append((j, witness))
        for v in lhss[j]:
            occ[v] -= 1
            holder[v] ^= j
            if occ[v] == 1:
                heapq.heappush(singletons, v)
    return deleted


def _satisfy_removed(removed, values: list[int]) -> list[int]:
    """Replay removed (lhs, rhs, witness) rows in reverse, in place: each
    witness occurred in no later row, so setting it satisfies its row."""
    for lhs, rhs, witness in reversed(removed):
        parity = rhs ^ values[witness]  # cancels the witness's term below
        for v in lhs:
            parity ^= values[v]
        values[witness] = parity
    return values


def profile(system: LinSystem) -> InstanceProfile:
    """Compute the arity/occurrence profile and structural flags."""
    lhs = system.lhs
    return InstanceProfile(
        max_arity=max(map(len, lhs), default=0),
        max_occurrence=max(occurrences(lhs).values(), default=0),
        num_equations=len(lhs),
        num_variables=system.n,
        total_weight=system.total_weight,
        unit_weights=all(w == 1 for w in system.weights),
        distinct_lhs=len(set(lhs)) == len(lhs),
    )

"""Weighted systems of linear equations over GF(2).

A system is a collection of equations ``x_{i1} + ... + x_{ir} = b`` (sum over
GF(2)) with positive integer weights. The goal everywhere in this package is
to minimize the total weight of falsified equations, equivalently to maximize
the satisfied weight.

All types are immutable values; the operations below are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class Equation:
    """One weighted equation: XOR of the lhs variables equals rhs.

    lhs holds distinct variable indices in strictly ascending order. An empty
    lhs (a constant equation) is legal only transiently; normalize() removes
    such equations.
    """

    lhs: tuple[int, ...]
    rhs: int
    weight: int = 1

    def __post_init__(self) -> None:
        if self.rhs not in (0, 1):
            raise ValueError(f"rhs must be 0 or 1, got {self.rhs!r}")
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight!r}")
        # One plain loop checks both the sign and the order: it allocates
        # nothing, and this runs for every equation built.
        prev = -1
        for v in self.lhs:
            if v <= prev:
                if prev < 0:
                    raise ValueError(f"negative variable index in {self.lhs}")
                raise ValueError(f"lhs must be strictly ascending, got {self.lhs}")
            prev = v

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


@dataclass(frozen=True, slots=True)
class LinSystem:
    """A weighted equation system over variables 0..n-1.

    forced_falsified is a weight ledger for contradictory constant equations
    (empty lhs, rhs 1) removed by normalize(); it counts toward the falsified
    weight of every assignment but is not part of total_weight.
    """

    n: int
    equations: tuple[Equation, ...] = ()
    forced_falsified: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "equations", tuple(self.equations))
        if self.n < 0:
            raise ValueError(f"variable count must be >= 0, got {self.n}")
        if self.forced_falsified < 0:
            raise ValueError("forced_falsified must be >= 0")
        total = 0
        for eqn in self.equations:
            if eqn.lhs and eqn.lhs[-1] >= self.n:
                raise ValueError(
                    f"variable {eqn.lhs[-1]} out of range for n={self.n}"
                )
            total += eqn.weight
        if total > MAX_TOTAL_WEIGHT:
            raise OverflowError("total system weight exceeds the supported bound")

    @classmethod
    def build(cls, n: int, rows, forced_falsified: int = 0) -> "LinSystem":
        """Build a system from (variables, rhs) or (variables, rhs, weight) rows."""
        eqs = []
        for row in rows:
            if len(row) == 2:
                variables, rhs = row
                weight = 1
            else:
                variables, rhs, weight = row
            eqs.append(Equation.make(variables, rhs, weight))
        return cls(n, tuple(eqs), forced_falsified)

    @property
    def num_equations(self) -> int:
        return len(self.equations)

    @property
    def total_weight(self) -> int:
        return sum(e.weight for e in self.equations)


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
    if len(assignment) != system.n:
        raise DimensionError(
            f"assignment length {len(assignment)} != variable count {system.n}"
        )
    satisfied = 0
    falsified = system.forced_falsified
    for eqn in system.equations:
        parity = 0
        for v in eqn.lhs:
            parity ^= assignment[v]
        if parity == eqn.rhs:
            satisfied += eqn.weight
        else:
            falsified += eqn.weight
    return satisfied, falsified


def falsified_indices(system: LinSystem, assignment) -> tuple[int, ...]:
    """Indices of the equations falsified by the assignment."""
    if len(assignment) != system.n:
        raise DimensionError(
            f"assignment length {len(assignment)} != variable count {system.n}"
        )
    out = []
    for j, eqn in enumerate(system.equations):
        parity = 0
        for v in eqn.lhs:
            parity ^= assignment[v]
        if parity != eqn.rhs:
            out.append(j)
    return tuple(out)


def cap_weights(system: LinSystem, k: int) -> LinSystem:
    """Clamp every weight to k+1.

    Whether some assignment falsifies weight at most k is unchanged: an
    equation of weight above k can never be falsified within that budget,
    before or after capping.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    cap = k + 1
    eqs = tuple(
        Equation(e.lhs, e.rhs, min(e.weight, cap)) for e in system.equations
    )
    return LinSystem(system.n, eqs, system.forced_falsified)


def normalize(system: LinSystem) -> LinSystem:
    """Canonical form: merge duplicate (lhs, rhs), drop constants, sort.

    Equations 0=0 are dropped outright; 0=1 equations move their weight into
    the forced_falsified ledger. Output is sorted by (lhs, rhs).
    """
    kept: dict[tuple[tuple[int, ...], int], Equation] = {}
    forced = system.forced_falsified
    for eqn in system.equations:
        if not eqn.lhs:
            if eqn.rhs == 1:
                forced += eqn.weight
            continue
        # Keep the input's own object; only a merge builds a new one.
        key = (eqn.lhs, eqn.rhs)
        first = kept.get(key)
        if first is not None:
            eqn = Equation(eqn.lhs, eqn.rhs, first.weight + eqn.weight)
        kept[key] = eqn
    eqs = tuple(kept[key] for key in sorted(kept))
    return LinSystem(system.n, eqs, forced)


def expand_unit_weights(system: LinSystem) -> LinSystem:
    """Replace each weight-w equation by w identical unit-weight copies.

    Raises CapacityError, before building anything, when the total weight
    exceeds MAX_UNIT_EQUATIONS.
    """
    if system.total_weight > MAX_UNIT_EQUATIONS:
        raise CapacityError(
            f"unit expansion of total weight {system.total_weight} exceeds "
            f"{MAX_UNIT_EQUATIONS} equations"
        )
    eqs = []
    for eqn in system.equations:
        eqs.extend(Equation(eqn.lhs, eqn.rhs, 1) for _ in range(eqn.weight))
    return LinSystem(system.n, tuple(eqs), system.forced_falsified)


def occurrence_counts(system: LinSystem) -> list[int]:
    """Number of equations containing each variable (copies counted)."""
    counts = [0] * system.n
    for eqn in system.equations:
        for v in eqn.lhs:
            counts[v] += 1
    return counts


def profile(system: LinSystem) -> InstanceProfile:
    """Compute the arity/occurrence profile and structural flags."""
    occ = occurrence_counts(system)
    lhss = [e.lhs for e in system.equations]
    return InstanceProfile(
        max_arity=max((e.arity for e in system.equations), default=0),
        max_occurrence=max(occ, default=0),
        num_equations=len(system.equations),
        num_variables=system.n,
        total_weight=system.total_weight,
        unit_weights=all(e.weight == 1 for e in system.equations),
        distinct_lhs=len(set(lhss)) == len(lhss),
    )

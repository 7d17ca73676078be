"""Reference solvers: the exhaustive oracle and the half-weight greedy.

The brute-force oracle is the ground truth every other solver and every
reduction in this package is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CapacityError,
    LinSystem,
    falsified_indices,
    variable_rows,
)

DEFAULT_VAR_LIMIT = 24


@dataclass(frozen=True)
class SolveResult:
    """An assignment plus its falsified weight and the falsified equations."""

    assignment: tuple[int, ...]
    falsified_weight: int
    certificate: tuple[int, ...]


def _result(system: LinSystem, assignment) -> SolveResult:
    """The result of an assignment, from one pass over the rows."""
    certificate = falsified_indices(system, assignment)
    weights = system.weights
    return SolveResult(
        assignment=tuple(assignment),
        falsified_weight=system.forced_falsified + sum(weights[j] for j in certificate),
        certificate=certificate,
    )


def brute_force_min_falsified(
    system: LinSystem, var_limit: int = DEFAULT_VAR_LIMIT
) -> SolveResult:
    """Exact minimum falsified weight by scanning all 2^n assignments.

    Assignments are visited in Gray-code order with O(d) incremental updates
    per step. Ties are broken toward the numerically smallest assignment read
    as a binary string (variable 0 is the most significant bit).
    """
    n = system.n
    if n > var_limit:
        raise CapacityError(f"{n} variables exceed the oracle limit {var_limit}")
    rhs, weight = system.rhs, system.weights
    touching = variable_rows(system.lhs)
    parity = [0] * len(rhs)
    falsified = sum(w for b, w in zip(rhs, weight) if b)
    best_falsified = falsified
    best_value = 0
    current = 0
    for step in range(1, 1 << n):
        bit = (step & -step).bit_length() - 1
        var = n - 1 - bit  # bit positions encode variable 0 as the MSB
        current ^= 1 << bit
        for j in touching.get(var, ()):
            if parity[j] == rhs[j]:
                falsified += weight[j]
            else:
                falsified -= weight[j]
            parity[j] ^= 1
        if falsified < best_falsified or (
            falsified == best_falsified and current < best_value
        ):
            best_falsified = falsified
            best_value = current
    assignment = tuple((best_value >> (n - 1 - v)) & 1 for v in range(n))
    return _result(system, assignment)


def conditional_expectation_assignment(system: LinSystem) -> SolveResult:
    """Fix variables one by one, keeping the expected satisfied weight high.

    Expectations are tracked exactly as doubled integers (an undecided
    equation contributes half its weight). For systems without contradictory
    constant equations the result satisfies weight at least total_weight / 2.
    """
    n = system.n
    rhs, weight = system.rhs, system.weights
    touching = variable_rows(system.lhs)
    unassigned = [len(lhs) for lhs in system.lhs]
    parity = [0] * len(rhs)
    values = []
    for var in range(n):
        # delta = 2*E[sat | x=1] - 2*E[sat | x=0], over equations decided now
        delta = 0
        for j in touching.get(var, ()):
            if unassigned[j] == 1:
                if parity[j] == rhs[j]:
                    delta -= 2 * weight[j]
                else:
                    delta += 2 * weight[j]
        value = 1 if delta > 0 else 0
        values.append(value)
        for j in touching.get(var, ()):
            unassigned[j] -= 1
            parity[j] ^= value
    return _result(system, tuple(values))

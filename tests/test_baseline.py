"""The brute-force oracle and the conditional-expectations baseline."""

from __future__ import annotations

import random

import pytest

from maxlin2 import (
    CapacityError,
    LinSystem,
    brute_force_min_falsified,
    conditional_expectation_assignment,
    evaluate,
)
from helpers import all_assignments, random_system


def test_oracle_contradictory_pair():
    system = LinSystem.build(1, [((0,), 0, 1), ((0,), 1, 1)])
    result = brute_force_min_falsified(system)
    assert result.falsified_weight == 1


def test_oracle_empty_system():
    result = brute_force_min_falsified(LinSystem(0))
    assert result.falsified_weight == 0
    assert result.assignment == ()
    assert result.certificate == ()


def test_oracle_consistent_system():
    system = LinSystem.build(2, [((0, 1), 1, 1), ((0,), 1, 1), ((1,), 0, 1)])
    result = brute_force_min_falsified(system)
    assert result.falsified_weight == 0
    assert result.assignment == (1, 0)


def test_oracle_capacity_limit():
    with pytest.raises(CapacityError):
        brute_force_min_falsified(LinSystem(30), var_limit=24)


def test_oracle_ties_break_to_smallest_binary_string():
    # x1 + x2 = 1 has optima (0,1) and (1,0); "01" is numerically smaller.
    system = LinSystem.build(2, [((0, 1), 1, 1)])
    assert brute_force_min_falsified(system).assignment == (0, 1)


def test_oracle_matches_naive_scan():
    rng = random.Random(7)
    for _ in range(60):
        system = random_system(rng, max_vars=5, max_eqs=7, max_weight=4)
        result = brute_force_min_falsified(system)
        best = min(
            evaluate(system, a)[1] for a in all_assignments(system.n)
        )
        assert result.falsified_weight == best
        assert evaluate(system, result.assignment)[1] == best
        falsified = [
            j
            for j, _ in enumerate(system.equations)
            if j in result.certificate
        ]
        assert tuple(falsified) == result.certificate


@pytest.mark.parametrize(
    "rows,expected_satisfied",
    [
        ([((0,), 0, 1)], 1),
        ([((0,), 0, 1), ((0,), 1, 1)], 1),
        ([((0, 1), 0, 2), ((0, 1), 1, 2)], 2),
    ],
)
def test_conditional_expectation_examples(rows, expected_satisfied):
    n = 1 + max(v for lhs, _, _ in rows for v in lhs)
    system = LinSystem.build(n, rows)
    result = conditional_expectation_assignment(system)
    satisfied, _ = evaluate(system, result.assignment)
    assert satisfied == expected_satisfied


def test_conditional_expectation_half_weight_guarantee():
    rng = random.Random(99)
    for _ in range(300):
        system = random_system(rng, max_vars=8, max_eqs=10, max_weight=5)
        result = conditional_expectation_assignment(system)
        satisfied, falsified = evaluate(system, result.assignment)
        assert satisfied + falsified == system.total_weight
        assert 2 * satisfied >= system.total_weight


def test_oracle_never_beaten():
    rng = random.Random(1234)
    for _ in range(200):
        system = random_system(rng, max_vars=7, max_eqs=9, max_weight=3)
        oracle = brute_force_min_falsified(system).falsified_weight
        greedy = conditional_expectation_assignment(system).falsified_weight
        assert oracle <= greedy
        for _ in range(10):
            a = tuple(rng.randint(0, 1) for _ in range(system.n))
            assert oracle <= evaluate(system, a)[1]

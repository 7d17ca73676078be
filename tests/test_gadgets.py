"""Cost-preserving gadget transformations and the full (=3,=3) pipeline."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxlin2
from maxlin2 import (
    CapacityError,
    DimensionError,
    Equation,
    GadgetError,
    LinSystem,
    OddSetInstance,
    brute_force_min_falsified,
    deduplicate_equations,
    emit_lin2,
    enforce_degree_exactly3,
    evaluate,
    expand_arity_to_3,
    expand_unit_weights,
    normalize,
    normalize_max_degree3,
    occurrence_counts,
    oddset_to_lin2,
    profile,
    reduce_degree4,
    reduce_degree5plus,
    solve_occ2,
    to_eq3_eq3,
)
from maxlin2.core import (
    MAX_TOTAL_WEIGHT,
    MAX_UNIT_EQUATIONS,
    ContractViolationError,
    occurrences,
    variable_rows,
)
from maxlin2.gadgets import (
    _GADGETS,
    _TIE_GRAPHS,
    _compact,
    _deduplicate,
    _enforce_degree,
    _is_exact,
    _map_back_step,
    _map_forward_step,
    _plan,
    _predict_sizes,
    _remove_always_satisfied_step,
    _resolve_opposing_step,
    _Rows,
    _split_growth,
    _ties,
    _write,
    reduce_to_target,
)
from helpers import (
    near_regular_system,
    oddset_is_yes,
    planted_occurrence_system,
    random_system,
    star_system,
    traced_peak,
)

RNG_SEED = 0x5EED
TARGETS = ("deg3", "arity3", "eq3eq3")  # every `maxlin2 reduce --target`


# --- odd-set encoding -------------------------------------------------------


def test_oddset_instance_validation():
    with pytest.raises(ValueError):
        OddSetInstance(2, ((), ), 0)
    with pytest.raises(ValueError):
        OddSetInstance(2, ((0, 1), (1, 0)), 0)  # same set twice
    with pytest.raises(ValueError):
        OddSetInstance(1, ((0, 1),), 0)


def test_oddset_two_element_set():
    red = oddset_to_lin2(OddSetInstance(2, ((0, 1),), 1))
    rows = [(e.lhs, e.rhs, e.weight) for e in red.system.equations]
    assert rows[:2] == [((0,), 0, 1), ((1,), 0, 1)]
    # The chain rows follow the 2 ground rows, one per member in set order.
    assert rows[2:] == [((0, 2), 0, 2), ((1, 2), 1, 2)]
    assert red.system.total_weight == 6
    assert red.budget == 1


def test_oddset_singleton_set_collapses():
    red = oddset_to_lin2(OddSetInstance(1, ((0,),), 0))
    assert [(e.lhs, e.rhs, e.weight) for e in red.system.equations] == [
        ((0,), 0, 1),
        ((0,), 1, 1),
    ]


def test_oddset_three_element_block_shape():
    red = oddset_to_lin2(OddSetInstance(3, ((0, 1, 2),), 0))
    assert red.system.n == 3 + 2  # two chain variables
    # The chain rows follow the 3 ground rows, one per member in set order.
    assert [(e.lhs, e.rhs, e.weight) for e in red.system.equations[3:]] == [
        ((0, 3), 0, 1),
        ((1, 3, 4), 0, 1),
        ((2, 4), 1, 1),
    ]


# Sets of every size from 1 to 4, overlapping, in no particular order.
_CHAIN_SETS = ((0, 1, 2, 3), (4,), (1, 5), (0, 2, 4), (3,), (1, 2, 3, 5))


def _chain_blocks(inst):
    """Row ranges of each set's chain rows: they follow the ground rows in set order."""
    start = inst.num_elements
    for members in inst.sets:
        yield members, range(start, start + len(members))
        start += len(members)


def test_oddset_chain_rows_telescope_to_odd_parity():
    inst = OddSetInstance(6, _CHAIN_SETS, 2)
    system = oddset_to_lin2(inst).system
    assert len(system.lhs) == 6 + sum(map(len, _CHAIN_SETS))
    for members, rows in _chain_blocks(inst):
        lhs_sum: set[int] = set()
        rhs_sum = 0
        for j in rows:
            lhs_sum ^= set(system.lhs[j])
            rhs_sum ^= system.rhs[j]
            assert system.weights[j] == inst.budget + 1
        # Over GF(2) the chain variables cancel: odd parity on the set.
        assert (lhs_sum, rhs_sum) == (set(members), 1)


def test_oddset_chain_variables_are_private_to_their_set():
    inst = OddSetInstance(6, _CHAIN_SETS, 2)
    system = oddset_to_lin2(inst).system
    assert system.n == 6 + sum(len(s) - 1 for s in _CHAIN_SETS)
    holders = variable_rows(system.lhs)
    next_var = 6
    for members, rows in _chain_blocks(inst):
        for r in range(len(members) - 1):
            # Chain variable r links rows r and r + 1 of its own block only.
            assert holders[next_var + r] == [rows[r], rows[r + 1]]
        next_var += len(members) - 1
    for x in range(6):
        assert len(holders[x]) == 1 + sum(x in s for s in _CHAIN_SETS)


def test_oddset_flipped_chain_rhs_turns_the_verdict():
    # {0, 1, 2} with budget 0 is a NO-instance. With the odd rhs of its last
    # chain row made even, the all-zero assignment satisfies every row, so
    # the oracle of criterion 4 would accept it.
    inst = OddSetInstance(3, ((0, 1, 2),), 0)
    system = oddset_to_lin2(inst).system
    assert not oddset_is_yes(inst)
    assert brute_force_min_falsified(system).falsified_weight == 1
    eqs = list(system.equations)
    eqs[-1] = Equation(eqs[-1].lhs, eqs[-1].rhs ^ 1, eqs[-1].weight)
    flipped = LinSystem(system.n, tuple(eqs))
    assert brute_force_min_falsified(flipped).falsified_weight == 0


def test_oddset_optimum_prices_each_selection():
    # The optimum is the least |X| + (budget + 1) * (sets X meets evenly)
    # over all selections X: each ground row charges one selected element,
    # and a block met evenly must falsify exactly one heavy chain row.
    subsets = [s for size in (1, 2, 3) for s in itertools.combinations(range(3), size)]
    for count in (0, 1, 2, 3):
        for family in itertools.combinations(subsets, count):
            for budget in range(4):
                system = oddset_to_lin2(OddSetInstance(3, family, budget)).system
                priced = min(
                    len(picked) + (budget + 1) * sum(
                        len(set(picked) & set(s)) % 2 == 0 for s in family
                    )
                    for size in range(4)
                    for picked in itertools.combinations(range(3), size)
                )
                assert brute_force_min_falsified(system).falsified_weight == priced, (family, budget)


def test_oddset_arity_bound():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        sizes = set()
        sets = []
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(1, n)
            members = tuple(sorted(rng.sample(range(n), size)))
            if members not in sizes:
                sizes.add(members)
                sets.append(members)
        red = oddset_to_lin2(OddSetInstance(n, tuple(sets), rng.randint(0, 2)))
        assert profile(red.system).max_arity <= 3


def test_oddset_equivalence_small():
    rng = random.Random(RNG_SEED)
    for _ in range(60):
        n = rng.randint(1, 4)
        subsets = []
        seen = set()
        for _ in range(rng.randint(0, 3)):
            members = tuple(
                sorted(rng.sample(range(n), rng.randint(1, n)))
            )
            if members not in seen:
                seen.add(members)
                subsets.append(members)
        inst = OddSetInstance(n, tuple(subsets), rng.randint(0, 2))
        red = oddset_to_lin2(inst)
        optimum = brute_force_min_falsified(red.system).falsified_weight
        assert (optimum <= inst.budget) == oddset_is_yes(inst)


# --- degree reduction rules -------------------------------------------------


def _planted(rng, degree, max_vars=5):
    while True:
        system = planted_occurrence_system(
            rng, variable=0, degree=degree, max_vars=max_vars, extra_eqs=2
        )
        if occurrence_counts(system)[0] == degree:
            return system


def test_degree4_shape():
    rng = random.Random(1)
    system = _planted(rng, 4)
    out = reduce_degree4(system, 0)
    assert out.n == system.n + 3
    assert len(out.equations) == len(system.equations) + 4
    occ = occurrence_counts(out)
    clones = (0, system.n, system.n + 1, system.n + 2)
    assert all(occ[c] == 3 for c in clones)  # one original + two cycle


def test_degree4_requires_degree_4():
    system = LinSystem.build(1, [((0,), 0, 1)])
    with pytest.raises(GadgetError):
        reduce_degree4(system, 0)


def test_degree4_preserves_optimum():
    rng = random.Random(2)
    for _ in range(60):
        system = _planted(rng, 4)
        out = reduce_degree4(system, 0)
        assert (
            brute_force_min_falsified(out).falsified_weight
            == brute_force_min_falsified(system).falsified_weight
        )


def _original_occurrences(system, out, clones):
    """How many of the system's own rows each clone holds after a split."""
    return [sum(c in lhs for lhs in out.lhs[: len(system.lhs)]) for c in clones]


def test_degree5plus_distribution_example():
    # Eight occurrences on one variable: each of the first 8 of the 14 slots
    # of the degree-8 tie graph holds one of them, its 6 helpers none, and
    # the graph's 17 ties are the only new rows.
    system = LinSystem.build(
        3, [((0, 1), 0, 1)] * 4 + [((0, 2), 1, 1)] * 4
    )
    out = reduce_degree5plus(system, 0)
    clones = (0, *range(system.n, out.n))
    assert clones == (0, *range(3, 16))
    # The split is the first step of degree normalization, worst first, and
    # records the variable and its rows; the clones are its fresh range.
    step = normalize_max_degree3(system)[1].steps[0]
    assert (step.data["variable"], step.pre_n, step.post_n) == (0, 3, 16)
    assert set(step.data) == {"variable", "rows"}
    assert _original_occurrences(system, out, clones) == [1] * 8 + [0] * 6
    ties = [(clones[a], clones[b]) for a, b in _TIE_GRAPHS[8][1]]
    assert list(out.lhs[len(system.lhs) :]) == ties
    assert not any(out.rhs[len(system.lhs) :])
    assert all(occurrence_counts(out)[c] == 3 for c in clones)
    # Nine occurrences take K_4: occurrence i goes to clone i mod 4, and the
    # 3 fresh clones and the variable are tied pairwise by 6 rhs-0 rows.
    system = LinSystem.build(3, [((0, 1), 0, 1)] * 5 + [((0, 2), 1, 1)] * 4)
    out = reduce_degree5plus(system, 0)
    clones = (0, *range(system.n, out.n))
    assert clones == (0, 3, 4, 5)
    assert _original_occurrences(system, out, clones) == [3, 2, 2, 2]
    ties = [(clones[a], clones[b]) for a, b in itertools.combinations(range(4), 2)]
    assert list(out.lhs[len(system.lhs) :]) == ties
    assert not any(out.rhs[len(system.lhs) :])


def test_degree5_split_of_five():
    system = LinSystem.build(2, [((0, 1), 0, 1)] * 5)
    out = reduce_degree5plus(system, 0)
    clones = (0, *range(system.n, out.n))
    assert len(clones) == 5
    original_occ = _original_occurrences(system, out, clones)
    assert original_occ == [1, 1, 1, 1, 1]
    # every clone of the 5-cycle holds two ties besides its original occurrence
    occ = occurrence_counts(out)
    for i, c in enumerate(clones):
        assert occ[c] == original_occ[i] + 2


def _hamming_neighbours(g, t):
    """K_g^t as neighbour bitmasks: slot a is tied to a with one base-g digit changed."""
    return [
        sum(1 << a + (k - a // p % g) * p for p in map(g.__pow__, range(t)) for k in range(g)
            if k != a // p % g)
        for a in range(g**t)
    ]


@pytest.mark.parametrize("g, t", [(3, 2), (4, 2), (2, 4), (3, 3)])
def test_lexicographic_segments_hold_the_most_edges(g, t):
    # Lindsey: no s slots of K_g^t hold more edges than the first s, L(s),
    # checked on every set of at most 6 slots. For s up to half the slots,
    # the first s have at least ceil(g / 2) s edges leaving them, so mu
    # ceil(g / 2) ties per clone settle a plan, and the first half at most
    # (g + 1) g^t / 4, which starts the planner's search. `_is_exact` is a
    # closed form of the check it replaces: for every s up to half the
    # slots, mu (s t (g - 1) - 2 L(s)) ties leave the first s, at least
    # the rows that s clones, or the others, can hold.
    neighbours = _hamming_neighbours(g, t)
    size = g**t
    ends = t * (g - 1)  # the ties of each slot
    assert all(n.bit_count() == ends for n in neighbours)
    first = [0]
    for v in range(size):
        first.append(first[-1] + (neighbours[v] & ((1 << v) - 1)).bit_count())
    most = [0] * 7

    def grow(members, last, edges):
        count = members.bit_count()
        most[count] = max(most[count], edges)
        if count < 6:
            for v in range(last + 1, size):
                grow(members | 1 << v, v, edges + (neighbours[v] & members).bit_count())

    grow(0, -1, 0)
    assert most == first[:7]
    for s in range(1, size // 2 + 1):
        assert s * ends - 2 * first[s] >= -(-g // 2) * s
    assert size // 2 * ends - 2 * first[size // 2] <= (g + 1) * size / 4
    for degree in range(4, (3 * -(-g // 2) + 2) * size):
        for mu in (1, 2, 3):
            q, heavy = divmod(degree, size)
            hi = [s * q + min(s, heavy) for s in range(size + 1)]
            lo = [s * q + max(0, s + heavy - size) for s in range(size + 1)]
            scan = all(
                mu * (s * ends - 2 * first[s]) >= min(hi[s], degree - lo[s], degree // 2)
                for s in range(1, size // 2 + 1)
            )
            assert _is_exact(degree, g, t, mu) == scan, (degree, mu)


@pytest.mark.parametrize("degree", range(4, 9))
def test_tie_graphs_leave_every_clone_at_three_and_stay_exact(degree):
    # Slot i < degree holds occurrence i and two ties, a helper three ties,
    # and every set S of slots has at least min(rows in S, rows outside S)
    # ties leaving it: the bound that makes a uniform clone value optimal.
    # Degree 4 takes the 4-cycle K_2^2, 5 to 8 their `_TIE_GRAPHS` entry.
    slots, ties = _plan(degree).slots, _ties(degree)
    assert (degree == 4) == (degree not in _TIE_GRAPHS)
    if degree == 4:
        assert _plan(4) == (4, 2, 1, (3, 4)) and ties == ((0, 1), (0, 2), (1, 3), (2, 3))
    else:
        assert (slots, ties) == _TIE_GRAPHS[degree]
    assert all(0 <= a < b < slots for a, b in ties)
    assert len(set(ties)) == len(ties)
    ends = collections.Counter(v for tie in ties for v in tie)
    assert [ends[s] for s in range(slots)] == [2] * degree + [3] * (slots - degree)
    rows = (1 << degree) - 1
    for subset in range(1 << slots):
        cut = sum((subset >> a ^ subset >> b) & 1 for a, b in ties)
        inside = (subset & rows).bit_count()
        assert cut >= min(inside, degree - inside), (degree, bin(subset))


def test_every_split_plan_to_degree_200_is_exact():
    # Each plan of degree 9..200 is K_g^t with mu ties per adjacent pair,
    # checked without the planner's closed form. The ties leaving a set S
    # of clones must be at least min(rows in S, rows outside S): for each
    # size s, the first s slots (the fewest ties leaving any s, by Lindsey)
    # against every total between the s lightest and the s heaviest
    # clones' and, up to 14 slots, on every S. A clone ends at 3 or splits
    # again below d, and parallel ties appear only where every clone
    # splits again.
    for degree in range(9, 201):
        plan = _plan(degree)
        size, g, mu, ties = plan.slots, plan.g, plan.mu, _ties(degree)
        t = round(math.log(size, g))
        assert g**t == size <= 2 * degree, degree
        neighbours = _hamming_neighbours(g, t)
        assert list(ties) == [
            (a, b) for a in range(size) for b in range(a + 1, size) if neighbours[a] >> b & 1
            for _ in range(mu)
        ]
        held = [len(range(c, degree, size)) for c in range(size)]
        ends = collections.Counter(v for tie in ties for v in tie)
        degrees = [held[c] + ends[c] for c in range(size)]
        assert 3 <= min(degrees) and max(degrees) < degree, degree
        assert mu == 1 or min(degrees) >= 4, degree
        later = [_split_growth(d) for d in degrees]
        assert plan.growth == (
            size - 1 + sum(n for n, _ in later), len(ties) + sum(m for _, m in later)
        )
        ordered = sorted(held)
        cut = 0
        for s in range(1, size):
            cut += ends[s - 1] - 2 * mu * (neighbours[s - 1] & ((1 << s - 1) - 1)).bit_count()
            lo, hi = sum(ordered[:s]), sum(ordered[size - s :])
            worst = max(min(x, degree - x) for x in range(lo, hi + 1))
            assert cut >= worst, (degree, s)
        if size > 14:
            continue
        inside, cuts = [0] * (1 << size), [0] * (1 << size)
        for subset in range(1, 1 << size):
            v = (subset & -subset).bit_length() - 1
            rest = subset ^ (1 << v)
            cuts[subset] = cuts[rest] + ends[v] - 2 * mu * (rest & neighbours[v]).bit_count()
            inside[subset] = inside[rest] + held[v]
            assert cuts[subset] >= min(inside[subset], degree - inside[subset]), (degree, subset)


def test_degree9_to_13_splits_match_the_oracle_through_both_maps():
    # One split of variable 0 at d = 9..13, where the complete-graph plans
    # add 2 to 4 clones, and at d = 16..18, the first to take K_3^2 (8
    # fresh clones), on small random systems like the degree 5-8 ones.
    rng = random.Random(9)
    for degree in (*range(9, 14), 16, 17, 18):
        checked = 0
        while checked < (120 if degree < 16 else 25):
            n = rng.randint(2, 9)
            rows = [
                ((0, *rng.sample(range(1, n), rng.randint(0, min(2, n - 1)))), rng.randint(0, 1), 1)
                for _ in range(degree)
            ]
            for _ in range(rng.randint(0, 5)):
                lhs = rng.sample(range(1, n), rng.randint(1, min(3, n - 1)))
                rows.append((lhs, rng.randint(0, 1), 1))
            system = LinSystem.build(n, [(sorted(lhs), rhs, w) for lhs, rhs, w in rows])
            if max(occurrence_counts(system)[1:]) >= degree:
                continue  # variable 0 must be the one split first
            checked += 1
            split = reduce_degree5plus(system, 0)
            assert split.n - n == _plan(degree).slots - 1 <= (4 if degree < 16 else 8)
            # Variable 0 is the worst, so degree normalization splits it first.
            step = normalize_max_degree3(system)[1].steps[0]
            assert (step.data["variable"], step.post_n) == (0, split.n)
            trace = maxlin2.ReductionTrace((step,), system, split)
            best = brute_force_min_falsified(system)
            reduced = brute_force_min_falsified(split)
            assert reduced.falsified_weight == best.falsified_weight
            back = trace.map_assignment_back(reduced.assignment)
            assert evaluate(system, back)[1] == best.falsified_weight
            forward = trace.map_assignment_forward(best.assignment)
            assert evaluate(split, forward)[1] == best.falsified_weight


def test_degree5_to_8_splits_match_the_oracle_through_both_maps():
    # Variable 0 in d unit rows with up to two partners each, plus a few
    # rows over the other variables; 12 of each degree checked where the
    # oracle can scan the split and the normalized systems.
    rng = random.Random(8)
    checked = collections.Counter()
    while min(checked[d] for d in range(5, 9)) < 12:
        degree, n = rng.choice((5, 6, 7, 8)), rng.randint(2, 8)
        rows = [
            ((0, *rng.sample(range(1, n), rng.randint(0, min(2, n - 1)))), rng.randint(0, 1), 1)
            for _ in range(degree)
        ]
        for _ in range(rng.randint(0, 5)):
            lhs = rng.sample(range(1, n), rng.randint(1, min(3, n - 1)))
            rows.append((lhs, rng.randint(0, 1), 1))
        if checked[degree] == 12:
            continue
        system = LinSystem.build(n, [(sorted(lhs), rhs, w) for lhs, rhs, w in rows])
        split = reduce_degree5plus(system, 0)
        out, trace = normalize_max_degree3(system)
        if max(split.n, out.n) > 16:
            continue
        checked[degree] += 1
        assert split.n - n == _TIE_GRAPHS[degree][0] - 1
        occ = occurrence_counts(out)
        for step in trace.steps:
            clones = (step.data["variable"], *range(step.pre_n, step.post_n))
            assert all(occ[c] == 3 for c in clones)
        best = brute_force_min_falsified(system)
        optimum = best.falsified_weight
        assert brute_force_min_falsified(split).falsified_weight == optimum
        reduced = brute_force_min_falsified(out)
        assert reduced.falsified_weight == optimum
        assert evaluate(system, trace.map_assignment_back(reduced.assignment))[1] == optimum
        assert evaluate(out, trace.map_assignment_forward(best.assignment))[1] == optimum


def test_degree5plus_preserves_optimum():
    rng = random.Random(4)
    for _ in range(50):
        system = _planted(rng, rng.randint(5, 8), max_vars=4)
        out = reduce_degree5plus(system, 0)
        assert (
            brute_force_min_falsified(out).falsified_weight
            == brute_force_min_falsified(system).falsified_weight
        )
    # Degrees 9..12 split into K_4 or K_3: at most 3 fresh variables.
    for degree in range(9, 13):
        system = _planted(rng, degree, max_vars=3)
        out = reduce_degree5plus(system, 0)
        assert out.n - system.n <= 3
        assert (
            brute_force_min_falsified(out).falsified_weight
            == brute_force_min_falsified(system).falsified_weight
        )


def test_degree_rules_reject_weighted_input():
    heavy = LinSystem.build(2, [((0, 1), 0, 2)] * 4)
    with pytest.raises(GadgetError):
        reduce_degree4(heavy, 0)


def test_normalize_max_degree3_fixed_point():
    system = LinSystem.build(3, [((0, 1, 2), 0, 1)] * 3)
    out, trace = normalize_max_degree3(system)
    assert out == system
    assert trace.steps == ()


def test_trace_text_has_one_line_per_step():
    # No steps, no lines: a system of degree <= 3 needs no split.
    _, trace = normalize_max_degree3(LinSystem.build(3, [((0, 1, 2), 0, 1)] * 3))
    assert trace.text() == ""
    system = LinSystem.build(5, [((0, j), 0, 1) for j in range(1, 5)] + [((1, 2, 3, 4), 1, 1)])
    _, trace = normalize_max_degree3(system)
    assert trace.text() == "degree4 variable=0 m:5->9 n:5->8\n"
    _, trace = reduce_to_target(system, "deg3")
    lines = trace.text().splitlines(keepends=True)
    assert len(lines) == len(trace.steps) and all(line.endswith("\n") for line in lines)


def test_normalize_max_degree3_terminates_and_decays():
    rng = random.Random(6)
    for _ in range(30):
        system = planted_occurrence_system(
            rng, variable=0, degree=rng.randint(4, 8), max_vars=4, extra_eqs=3
        )
        out, trace = normalize_max_degree3(system)
        assert max(occurrence_counts(out), default=0) <= 3
        # the split (worst) degree never increases along the steps
        worst = [len(s.data["rows"]) for s in trace.steps]
        assert all(a >= b for a, b in zip(worst, worst[1:]))


def test_normalize_max_degree3_preserves_optimum():
    rng = random.Random(7)
    for _ in range(40):
        system = planted_occurrence_system(
            rng, variable=0, degree=rng.randint(4, 6), max_vars=3, extra_eqs=2
        )
        out, _ = normalize_max_degree3(system)
        if out.n > 16:
            continue
        assert (
            brute_force_min_falsified(out).falsified_weight
            == brute_force_min_falsified(system).falsified_weight
        )


# --- arity expansion --------------------------------------------------------


def test_arity_expand_single_zero_equation():
    out = expand_arity_to_3(LinSystem.build(1, [((0,), 0, 1)]))
    assert len(out.equations) == 3
    assert out.n == 5
    assert all(e.arity == 3 for e in out.equations)
    assert brute_force_min_falsified(out).falsified_weight == 0


def test_arity_expand_contradictory_pair_keeps_optimum():
    system = LinSystem.build(1, [((0,), 0, 1), ((0,), 1, 1)])
    out = expand_arity_to_3(system)
    assert len(out.equations) == 6
    assert brute_force_min_falsified(out).falsified_weight == 1


def test_arity_expand_pair_witness():
    out = expand_arity_to_3(LinSystem.build(2, [((0, 1), 1, 1)]))
    assert len(out.equations) == 2
    # u = v = 0, x = 0, y = 1 satisfies both new equations
    assert evaluate(out, (0, 1, 0, 0))[1] == 0


def test_arity_expand_preserves_optimum():
    rng = random.Random(9)
    count = 0
    while count < 60:
        system = random_system(
            rng, max_vars=3, max_eqs=3, max_weight=1, max_arity=3
        )
        out = expand_arity_to_3(system)
        if out.n > 16:
            continue
        count += 1
        assert (
            brute_force_min_falsified(out).falsified_weight
            == brute_force_min_falsified(system).falsified_weight
        )


def test_arity_expand_names_its_first_bad_row():
    # The arities are checked as a set, then the first bad row is named.
    rows = [((0, 1), 0, 1), ((), 0, 1), ((0, 1, 2, 3), 0, 1)]
    for order, arity in ((rows, 0), (rows[::-1], 4)):
        with pytest.raises(GadgetError) as caught:
            expand_arity_to_3(LinSystem.build(4, order))
        assert str(caught.value) == f"arity {arity} equation cannot be expanded to arity 3"


def test_arity_expand_every_equation_ends_at_three():
    rng = random.Random(10)
    for _ in range(40):
        system = random_system(rng, max_vars=4, max_eqs=4, max_weight=1, max_arity=3)
        out = expand_arity_to_3(system)
        assert all(e.arity == 3 for e in out.equations)


# --- exact-degree-3 enforcement ----------------------------------------------


def _random_arity3(rng, max_vars=6, max_eqs=4):
    return random_system(
        rng,
        max_vars=max_vars,
        max_eqs=max_eqs,
        max_weight=1,
        max_arity=3,
        max_occurrence=3,
        min_vars=3,
    )


def _only_arity3(system):
    return LinSystem(
        system.n, tuple(e for e in system.equations if e.arity == 3)
    )


def test_enforce_fixed_point():
    # four equations over four variables, every variable in exactly three
    system = LinSystem.build(
        4,
        [
            ((0, 1, 2), 0, 1),
            ((0, 1, 3), 1, 1),
            ((0, 2, 3), 0, 1),
            ((1, 2, 3), 1, 1),
        ],
    )
    out, trace = enforce_degree_exactly3(system)
    assert out == system


# Three variables of degree 2 (2, 3 and 4), two of degree 3, none of degree 1.
TRIPLET_ROWS = [((0, 1, 2), 0), ((0, 1, 3), 0), ((0, 1, 4), 1), ((2, 3, 4), 0)]


def test_enforce_triplet_shape():
    system = LinSystem.build(5, TRIPLET_ROWS)
    occ = occurrence_counts(system)
    assert sorted(occ) == [2, 2, 2, 3, 3]
    out, _ = enforce_degree_exactly3(system)
    assert out.n == system.n + 6
    assert len(out.equations) == len(system.equations) + 7
    assert all(c == 3 for c in occurrence_counts(out))


# Stores with 3, 6, 9 and 15 variables of occurrence 2 (2..4, then 0..k-1),
# the rest at occurrence 3.
PAD_STORES = {
    3: (5, TRIPLET_ROWS),
    6: (6, [((0, 1, 2), 0), ((0, 2, 4), 0), ((1, 3, 5), 0), ((3, 4, 5), 0)]),
    9: (9, [((0, 1, 2), 0), ((0, 3, 6), 0), ((1, 4, 7), 0), ((2, 5, 8), 0),
            ((3, 4, 5), 0), ((6, 7, 8), 0)]),
    15: (15, [((i, i + 1, i + 2), 1) for i in range(0, 15, 3)]
         + [((i, i + 5, i + 10), 0) for i in range(5)]),
}


# Per gadget: the weight its source row loses when false (0: a pad has no
# source row), and how many gadget rows hold each source and each fresh slot.
GADGET_SOURCES = {
    "arity1": (1, 1, 2),
    "arity2": (1, 1, 2),
    "pair": (2, 2, 3),
    "pad3": (0, 1, 3),
    "pad6": (0, 1, 3),
}


@pytest.mark.parametrize("name", sorted(_GADGETS))
def test_gadget_exhaustive(name):
    # For every value of the sources and the rhs, the fewest falsified
    # gadget rows are what the source loses, and the forward map hits it.
    loss, source_rows, fresh_rows = GADGET_SOURCES[name]
    k = _GADGETS[name][0]
    for rhs in (0, 1):
        store = _store(k, [])
        group = _write(store, name, tuple(range(k)), bytes((rhs,)))
        # Every gadget rule's forward map completes its groups alike.
        step = store.step("arity-expand", {"groups": (group,)}, (k, 0))
        gadget = list(zip(store.lhs, store.rhs))
        assert len(gadget) == len(_GADGETS[name][1])
        fresh = range(k, store.n)
        held = collections.Counter(v for lhs, _ in gadget for v in lhs)
        assert held == {**dict.fromkeys(range(k), source_rows), **dict.fromkeys(fresh, fresh_rows)}
        assert len(set(gadget)) == len(gadget)
        assert all(lhs == tuple(sorted(set(lhs))) for lhs, _ in gadget)
        # No gadget row can equal a row outside the gadget.
        assert all(lhs[-1] in fresh for lhs, _ in gadget)

        def falsified(full):
            return sum(sum(full[v] for v in lhs) % 2 != b for lhs, b in gadget)

        for bits in itertools.product((0, 1), repeat=k):
            lost = loss * (sum(bits) % 2 != rhs)
            costs = {c: falsified(bits + c) for c in itertools.product((0, 1), repeat=len(fresh))}
            forward = tuple(_map_forward_step(step, list(bits)))
            assert min(costs.values()) == falsified(forward) == lost
            if not loss:  # a pad: exactly one completion satisfies it
                assert [c for c, cost in costs.items() if not cost] == [forward[k:]]


@pytest.mark.parametrize(
    "count, groups, growth",
    [
        (3, (("pad6", (), b""), ("pad3", (2, 3, 4), b"\0")), (6, 7)),
        (6, (("pad6", (0, 1, 2, 3, 4, 5), b"\0"), ("pad3", (), b"")), (8, 10)),
        (9, (("pad6", (0, 1, 2, 3, 4, 5), b"\0"), ("pad3", (6, 7, 8), b"\0")), (14, 17)),
        (15, (("pad6", tuple(range(12)), b"\0\0"), ("pad3", (12, 13, 14), b"\0")), (22, 27)),
    ],
)
def test_pad_groups_six_then_three(count, groups, growth):
    store = _store(*PAD_STORES[count])
    (step,) = _enforce_degree(store)
    assert step.data["groups"] == groups
    assert (step.post_n - step.pre_n, step.post_m - step.pre_m) == growth
    assert set(occurrences(store.lhs).values()) == {3}
    # One gadget per group, in order, each with the next fresh variables and
    # its rows in table order.
    expected, fresh = [], step.pre_n
    for name, held, _ in groups:
        k, rows, values, _ = _GADGETS[name]
        for start in range(0, len(held), k):
            slots = held[start : start + k] + tuple(range(fresh, fresh + len(values)))
            fresh += len(values)
            expected += [tuple(slots[s] for s in row) for row in rows]
    assert store.lhs[step.pre_m :] == expected
    assert bytes(store.rhs[step.pre_m :]) == bytes(len(expected))


def test_enforce_removes_always_satisfiable():
    system = LinSystem.build(3, [((0, 1, 2), 1, 1)])
    out, trace = enforce_degree_exactly3(system)
    assert out.equations == ()
    # The row is logged as it was, with its lowest singleton as the witness.
    assert trace.steps[0].data["removed"] == (((0, 1, 2), 1, 0),)


def test_enforce_preserves_optimum():
    rng = random.Random(11)
    count = 0
    while count < 60:
        system = _only_arity3(_random_arity3(rng))
        out, _ = enforce_degree_exactly3(system)
        if out.n > 16:
            continue
        count += 1
        assert (
            brute_force_min_falsified(out).falsified_weight
            == brute_force_min_falsified(system).falsified_weight
        )


def test_enforce_rejects_bad_arity():
    with pytest.raises(GadgetError):
        enforce_degree_exactly3(LinSystem.build(2, [((0, 1), 0, 1)]))


# --- duplicate elimination ---------------------------------------------------


def _pair_context(rhs):
    """Two copies of x+y+z=rhs, with x, y, z each pushed to degree 3."""
    return LinSystem.build(
        6,
        [
            ((0, 1, 2), rhs, 1),
            ((0, 1, 2), rhs, 1),
            ((0, 3, 4), 0, 1),
            ((1, 3, 5), 0, 1),
            ((2, 4, 5), 0, 1),
        ],
    )


@pytest.mark.parametrize("rhs", [0, 1])
def test_dedup_pair_gadget_cost_table(rhs):
    system = _pair_context(rhs)
    out, _ = deduplicate_equations(system)
    assert len(out.equations) == 3 + 8
    assert (
        brute_force_min_falsified(out).falsified_weight
        == brute_force_min_falsified(system).falsified_weight
    )
    prof = profile(out)
    assert prof.distinct_lhs


def test_dedup_pair_satisfied_extension():
    # assignment satisfying x+y+z=0 extends to satisfy all eight equations
    system = LinSystem.build(3, [((0, 1, 2), 0, 1), ((0, 1, 2), 0, 1)])
    out, _ = deduplicate_equations(system)
    x, y, z = 1, 1, 0
    extension = (x, y, z, x, y, z, x, y, z)  # a1=a2=x, b1=b2=y, c1=c2=z
    assert evaluate(out, extension)[1] == 0


def test_dedup_pair_falsified_loses_exactly_two():
    system = LinSystem.build(3, [((0, 1, 2), 0, 1), ((0, 1, 2), 0, 1)])
    out, _ = deduplicate_equations(system)
    # x+y+z=1 falsifies the source pair; the all-zero fresh extension
    # falsifies exactly two of the eight
    assert evaluate(out, (1, 0, 0) + (0,) * 6)[1] == 2
    # and no extension of any pair-falsifying assignment does better
    for xyz in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
        best = min(
            evaluate(out, xyz + fresh)[1]
            for fresh in itertools.product((0, 1), repeat=6)
        )
        assert best == 2


def test_dedup_triple_removal():
    system = LinSystem.build(3, [((0, 1, 2), 1, 1)] * 3)
    out, trace = deduplicate_equations(system)
    assert out.equations == ()
    assert len(trace.steps[0].data["triples"]) == 1


def test_dedup_triple_maps_back_to_a_satisfying_assignment():
    # the removed copies are satisfied by x = rhs, y = z = 0, whatever the
    # reduced assignment says; keeping the zeros would falsify all three
    system = LinSystem.build(3, [((0, 1, 2), 1, 1)] * 3)
    out, trace = deduplicate_equations(system)
    back = trace.map_assignment_back((0,) * out.n)
    assert back == (1, 0, 0)
    assert evaluate(system, back)[1] == 0


# The weight-3 row holds variables that occur nowhere else, so it is always
# satisfiable and never unit-expanded. The weight-2 row's variables each
# occur once more, so it unit-expands to the input's one pair of copies.
INPUT_COPIES = LinSystem.build(
    9,
    [
        ((0, 1, 2), 1, 3),
        ((3, 4, 5), 1, 2),
        ((3, 6, 7), 0, 1),
        ((4, 6, 8), 0, 1),
        ((5, 7, 8), 0, 1),
    ],
)


def test_dedup_triple_path_end_to_end():
    # The removal step drops the weight-3 row before unit expansion, so no
    # triple copies reach dedup; only map-back restores the row.
    system = INPUT_COPIES
    out, trace = to_eq3_eq3(system)
    steps = {step.rule: step for step in trace.steps}
    assert steps["always-satisfied-removal"].data["removed"] == (((0, 1, 2), 1, 0),)
    assert steps["deduplicate"].data["triples"] == ()
    rng = random.Random(3)
    for _ in range(200):
        back = trace.map_assignment_back(tuple(rng.randint(0, 1) for _ in range(out.n)))
        assert back[0] ^ back[1] ^ back[2] == 1
    for a in itertools.product((0, 1), repeat=system.n):
        assert evaluate(out, trace.map_assignment_forward(a))[1] <= evaluate(system, a)[1]


def test_dedup_weight2_input_row_gets_the_pair_gadget():
    # As in _pair_context, x, y and z each occur once more, so the row is
    # not always satisfiable and its two unit copies reach dedup.
    system = LinSystem.build(
        6, [((0, 1, 2), 0, 2), ((0, 3, 4), 0, 1), ((1, 3, 5), 0, 1), ((2, 4, 5), 0, 1)]
    )
    out, trace = to_eq3_eq3(system)
    (dedup,) = [step for step in trace.steps if step.rule == "deduplicate"]
    assert dedup.data == {"groups": (("pair", (0, 1, 2), b"\0"),), "triples": ()}
    # Two copies out, eight gadget rows over six fresh variables in.
    assert (dedup.post_n - dedup.pre_n, dedup.post_m - dedup.pre_m) == (6, 6)
    assert brute_force_min_falsified(out).falsified_weight == 0


def test_dedup_no_duplicates_identity():
    system = LinSystem.build(4, [((0, 1, 2), 0, 1), ((0, 1, 3), 1, 1)])
    out, _ = deduplicate_equations(system)
    assert out == system


def test_dedup_rejects_mismatched_rhs():
    system = LinSystem.build(3, [((0, 1, 2), 0, 1), ((0, 1, 2), 1, 1)])
    with pytest.raises(ContractViolationError):
        deduplicate_equations(system)


# Each input check of this module that no other test reaches: the call, the
# exception type and the exact message. Each input has a single fault.
GADGET_INPUT_FAULTS = {
    "ground set -1": (
        lambda: OddSetInstance(-1, (), 0), ValueError, "ground set size must be >= 0"
    ),
    "budget -1": (lambda: OddSetInstance(1, (), -1), ValueError, "budget must be >= 0"),
    "repeated element": (
        lambda: OddSetInstance(2, ((0, 0),), 0), ValueError, "repeated element in set (0, 0)"
    ),
    "expand arity 4": (
        lambda: expand_arity_to_3(LinSystem.build(4, [((0, 1, 2, 3), 0, 1)])),
        GadgetError,
        "arity 4 equation cannot be expanded to arity 3",
    ),
    "expand arity 0": (
        lambda: expand_arity_to_3(LinSystem.build(1, [((), 0, 1)])),
        GadgetError,
        "arity 0 equation cannot be expanded to arity 3",
    ),
    "enforce occurrence 4": (
        lambda: enforce_degree_exactly3(
            LinSystem.build(9, [((0, 2 * i + 1, 2 * i + 2), 0, 1) for i in range(4)])
        ),
        GadgetError,
        "occurrence above 3; run degree normalization first",
    ),
    "enforce occurrence-2 count": (
        lambda: _enforce_degree(_store(4, [((0, 1, 2), 0), ((0, 1, 3), 0)])),
        ContractViolationError,
        "2 variables of occurrence 2; expected a multiple of 3",
    ),
    "dedup arity 2": (
        lambda: deduplicate_equations(LinSystem.build(2, [((0, 1), 0, 1)])),
        GadgetError,
        "deduplication expects arity exactly 3",
    ),
    "dedup rhs": (
        lambda: deduplicate_equations(
            LinSystem.build(3, [((0, 1, 2), 0, 1), ((0, 1, 2), 1, 1)])
        ),
        ContractViolationError,
        "equations with lhs (0, 1, 2) disagree on rhs",
    ),
    "dedup four copies": (
        lambda: deduplicate_equations(LinSystem.build(3, [((0, 1, 2), 1, 1)] * 4)),
        ContractViolationError,
        "4 copies of lhs (0, 1, 2); at most 3 possible",
    ),
    "dedup triple shares a variable": (
        lambda: deduplicate_equations(
            LinSystem.build(5, [((0, 1, 2), 1, 1)] * 3 + [((0, 3, 4), 0, 1)])
        ),
        ContractViolationError,
        "variable 0 of a triple copy occurs elsewhere",
    ),
}


@pytest.mark.parametrize("case", sorted(GADGET_INPUT_FAULTS))
def test_gadget_input_checks_keep_their_messages(case):
    call, error, message = GADGET_INPUT_FAULTS[case]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_dedup_preserves_optimum_via_pipeline_inputs():
    from maxlin2.gadgets import _resolve_opposing_step

    rng = random.Random(12)
    count = 0
    while count < 60:
        base = random_system(
            rng, max_vars=4, max_eqs=3, max_weight=2, max_arity=3
        )
        staged, _ = _resolve_opposing_step(normalize(base))
        staged = expand_unit_weights(staged)
        staged, _ = normalize_max_degree3(staged)
        staged = expand_arity_to_3(staged)
        staged, _ = enforce_degree_exactly3(staged)
        out, _ = deduplicate_equations(staged)
        if out.n > 16 or staged.n > 16:
            continue
        count += 1
        assert (
            brute_force_min_falsified(out).falsified_weight
            == brute_force_min_falsified(staged).falsified_weight
        )


# --- full pipeline -----------------------------------------------------------


def _assert_eq3_profile(system):
    if not system.equations:
        return
    prof = profile(system)
    assert prof.max_arity == 3
    assert prof.max_occurrence == 3
    assert prof.unit_weights
    assert prof.distinct_lhs
    assert all(c == 3 for c in occurrence_counts(system))


def test_pipeline_profile_and_trace():
    rng = random.Random(13)
    for _ in range(40):
        system = random_system(rng, max_vars=5, max_eqs=5, max_weight=2, max_arity=3)
        out, trace = to_eq3_eq3(system)
        _assert_eq3_profile(out)
        assert trace.original_system == system
        assert trace.reduced_system == out


def test_pipeline_preserves_optimum_small():
    rng = random.Random(14)
    verified = nonempty = 0
    attempts = 0
    while (verified < 40 or nonempty < 15) and attempts < 4000:
        attempts += 1
        system = (
            near_regular_system(rng)
            if attempts % 2
            else random_system(rng, max_vars=5, max_eqs=5, max_weight=2, max_arity=3)
        )
        out, trace = to_eq3_eq3(system)
        if out.n > 16:
            continue
        verified += 1
        nonempty += bool(out.equations)
        original = brute_force_min_falsified(system).falsified_weight
        best_reduced = brute_force_min_falsified(out)
        assert best_reduced.falsified_weight == original
        mapped = trace.map_assignment_back(best_reduced.assignment)
        assert evaluate(system, mapped)[1] == original
    assert verified >= 40 and nonempty >= 15


def test_pipeline_backmap_never_worse():
    rng = random.Random(15)
    for _ in range(40):
        system = random_system(rng, max_vars=4, max_eqs=4, max_weight=2, max_arity=3)
        out, trace = to_eq3_eq3(system)
        for _ in range(5):
            candidate = tuple(rng.randint(0, 1) for _ in range(out.n))
            mapped = trace.map_assignment_back(candidate)
            assert evaluate(system, mapped)[1] <= evaluate(out, candidate)[1]


def test_pipeline_rejects_arity_above_3():
    from maxlin2 import InstanceClassError

    with pytest.raises(InstanceClassError):
        to_eq3_eq3(LinSystem.build(4, [((0, 1, 2, 3), 0, 1)]))


def test_pipeline_forward_map_never_worse_and_tight_at_optimum():
    rng = random.Random(17)
    for _ in range(30):
        system = random_system(rng, max_vars=4, max_eqs=4, max_weight=2, max_arity=3)
        out, trace = to_eq3_eq3(system)
        for _ in range(5):
            candidate = tuple(rng.randint(0, 1) for _ in range(system.n))
            extended = trace.map_assignment_forward(candidate)
            assert evaluate(out, extended)[1] <= evaluate(system, candidate)[1]
        best = brute_force_min_falsified(system)
        extended = trace.map_assignment_forward(best.assignment)
        assert evaluate(out, extended)[1] == best.falsified_weight


def test_pipeline_size_polynomial():
    # The splitting recursion makes output size a (large) polynomial of the
    # input size; this pins a quadratic envelope measured on this corpus
    # (worst observed ratio 182, concentrated-weight inputs are the worst).
    rng = random.Random(16)
    worst = 0.0
    for _ in range(60):
        system = random_system(rng, max_vars=5, max_eqs=6, max_weight=3, max_arity=3)
        out, _ = to_eq3_eq3(system)
        size_in = system.n + len(system.equations) + system.total_weight
        size_out = out.n + len(out.equations)
        if size_in:
            worst = max(worst, size_out / size_in**2)
    assert worst <= 256


def test_oddset_through_pipeline_equivalence():
    inst = OddSetInstance(3, ((0, 1), (1, 2)), 1)
    assert oddset_is_yes(inst)
    red = oddset_to_lin2(inst)
    best = brute_force_min_falsified(red.system)
    assert best.falsified_weight <= red.budget
    out, trace = to_eq3_eq3(red.system)
    _assert_eq3_profile(out)
    # The reduced instance is too large to enumerate, but the trace carries
    # a witness both ways: forwarding the optimum keeps its cost, and any
    # reduced assignment maps back without getting worse.
    extended = trace.map_assignment_forward(best.assignment)
    assert evaluate(out, extended)[1] == best.falsified_weight
    rng = random.Random(18)
    for _ in range(10):
        candidate = tuple(rng.randint(0, 1) for _ in range(out.n))
        mapped = trace.map_assignment_back(candidate)
        assert evaluate(red.system, mapped)[1] <= evaluate(out, candidate)[1]


# sha256 of the emitted .lin2 text, the forward maps and the back maps over
# the corpus below. Any change to rule order, variable numbering or the
# prune order of always-satisfied-removal shows up here.
PIPELINE_GOLDEN = (
    "b1ee244134a74dc7d262f229d9789417d469bac26616529197764c284da33dd7",
    "d3322dd5af09a0673093c8ee2509f1c0ddbec776cc2fd50ce0b444f18fb79435",
    "607d49766d1c7369ef745512e8922f95fe7e21c37a895b6642092898844dfc4d",
)


def _golden_corpus(rng):
    """12 seeded arity <= 3 inputs with an opposing row, plus one odd-set encoding."""
    systems = []
    for _ in range(12):
        system = random_system(
            rng, max_vars=7, max_eqs=9, max_weight=2, max_arity=3, max_occurrence=4
        )
        if system.equations:
            first = system.equations[0]
            rows = [(e.lhs, e.rhs, e.weight) for e in system.equations]
            system = LinSystem.build(system.n, rows + [(first.lhs, 1 - first.rhs, 1)])
        systems.append(system)
    inst = OddSetInstance(5, ((0, 1), (1, 2, 3), (2, 4), (0, 3, 4)), 1)
    systems.append(oddset_to_lin2(inst).system)
    return systems


def test_pipeline_golden_digests():
    rng = random.Random(0x601D)
    systems = _golden_corpus(rng)
    text, forward, back = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for system in systems:
        reduced, trace = to_eq3_eq3(system)
        text.update(emit_lin2(reduced).encode())
        a = tuple(rng.randint(0, 1) for _ in range(system.n))
        forward.update(bytes(trace.map_assignment_forward(a)) + b"|")
        b = tuple(rng.randint(0, 1) for _ in range(reduced.n))
        back.update(bytes(trace.map_assignment_back(b)) + b"|")
    digests = (text.hexdigest(), forward.hexdigest(), back.hexdigest())
    assert digests == PIPELINE_GOLDEN
    # The corpus runs both sides of the pipeline's two early exits:
    # always-satisfied-removal rebuilds the rows only when a variable
    # occurs once, and compact renumbers only when a slot is empty.
    cascades = renumbers = 0
    for system in systems:
        steps = {step.rule: step for step in to_eq3_eq3(system)[1].steps}
        removal, compact = steps["always-satisfied-removal"], steps["compact"]
        cascades += removal.post_m < removal.pre_m
        renumbers += compact.post_n < compact.pre_n
    assert (len(systems), cascades, renumbers) == (13, 6, 9)


# sha256 of the forward map of a random assignment and the back map of a
# random reduced assignment, over every entry point that writes a trace and
# the corpus below. It pins what each step's maps do, whatever the step
# records to do it.
TRACE_GOLDEN = "e77276f58c9fe9245ec3a8fe60def98d763eaf36861f1a1757a9d2b789cfcf05"


def _trace_rows(rng, n, m, arities, max_occurrence, max_weight=1):
    """Up to m rows on variables below n, of arities drawn from `arities`.

    No variable is in more than max_occurrence of them, and the weights are 1 to max_weight.
    """
    left = [max_occurrence] * n
    rows = []
    for _ in range(m):
        pool = [v for v in range(n) if left[v]]
        arity = rng.choice(arities)
        if len(pool) < arity:
            break
        lhs = tuple(sorted(rng.sample(pool, arity)))
        for v in lhs:
            left[v] -= 1
        rows.append((lhs, rng.randint(0, 1), rng.randint(1, max_weight)))
    return rows


def _trace_corpus(rng):
    """(label, entry point, system) for every entry point that writes a trace.

    The `reduce_to_target` inputs have weights 1 to 3 and weighted degrees
    up to 12; some hold an opposing copy of a row, a pendant row (on a
    variable no other row holds) or unused header slots, so that compact
    runs with and without an empty slot. Those of "deg3" also hold arity-4
    rows. The other entry points take unit weights: `normalize_max_degree3`
    degrees up to 12, `enforce_degree_exactly3` arity-3 rows at occurrence
    at most 3, and `deduplicate_equations` distinct arity-3 rows plus
    copied pairs and one triple on variables of its own.
    """
    cases = []
    for i in range(24):
        target = TARGETS[i % 3]
        n = rng.randint(3, 6)
        rows = _trace_rows(rng, n, 2 * n, range(1, 5 if target == "deg3" else 4), 4, 3)
        if rows and i % 2:
            lhs, rhs, _ = rng.choice(rows)
            rows.append((lhs, 1 - rhs, rng.randint(1, 3)))
        if i % 4 == 1:
            rows.append(((rng.randrange(n), n), rng.randint(0, 1), rng.randint(1, 3)))
            n += 1
        if i % 4 == 3:
            n += rng.randint(1, 3)
        cases.append((target, lambda s, t=target: reduce_to_target(s, t), LinSystem.build(n, rows)))
    for _ in range(6):
        n = rng.randint(3, 8)
        rows = _trace_rows(rng, n, 14, range(1, 5), 12)
        cases.append(("max-degree-3", normalize_max_degree3,
                      LinSystem.build(n + rng.randint(0, 2), rows)))
    for _ in range(6):
        n = rng.randint(4, 10)
        rows = _trace_rows(rng, n, 10, (3,), 3)
        cases.append(("exactly-3", enforce_degree_exactly3,
                      LinSystem.build(n + rng.randint(0, 2), rows)))
    for i in range(6):
        n = rng.randint(4, 9)
        distinct = {row[0]: row for row in _trace_rows(rng, n, 8, (3,), 4)}
        rows = list(distinct.values())
        rows += rng.sample(rows, min(len(rows), rng.randint(1, 2)))
        rows += [((n, n + 1, n + 2), i % 2, 1)] * 3
        rng.shuffle(rows)
        cases.append(("deduplicate", deduplicate_equations, LinSystem.build(n + 3, rows)))
    return cases


def test_trace_golden_digest():
    rng = random.Random(0x7ACE)
    digest = hashlib.sha256()
    rules = set()
    compact_renumbers = set()
    for name, reduce, system in _trace_corpus(rng):
        reduced, trace = reduce(system)
        a = tuple(rng.randint(0, 1) for _ in range(system.n))
        b = tuple(rng.randint(0, 1) for _ in range(reduced.n))
        forward = trace.map_assignment_forward(a)
        back = trace.map_assignment_back(b)
        digest.update(name.encode() + b":" + bytes(forward) + b"|" + bytes(back) + b"|")
        rules.update(step.rule for step in trace.steps)
        compact_renumbers |= {s.post_n < s.pre_n for s in trace.steps if s.rule == "compact"}
    assert digest.hexdigest() == TRACE_GOLDEN
    assert rules == {
        "normalize", "opposing-pairs", "always-satisfied-removal", "unit-expand", "degree4",
        "degree5plus", "arity-expand", "degree2-triplets", "deduplicate", "compact",
    }
    assert compact_renumbers == {False, True}


# Step data that holds equation rows (lhs, rhs), or (lhs, rhs, witness) for
# "removed", and the gadget groups, counted by their sources: one rhs bit per
# gadget written, so one per source row. The rest holds variables.
ROW_DATA = {
    "rows": len,
    "triples": len,
    "removed": len,
    "groups": lambda groups: sum(len(rhs_bits) for _, _, rhs_bits in groups),
}


def test_trace_records_rule_data_and_sizes_only():
    for system in _golden_corpus(random.Random(0x601D)):
        out, trace = to_eq3_eq3(system)
        recorded = 0
        for step in trace.steps:
            for field in dataclasses.fields(step):
                assert not isinstance(getattr(step, field.name), LinSystem)
            assert not any(isinstance(v, LinSystem) for v in step.data.values())
            recorded += sum(count(step.data.get(key, ())) for key, count in ROW_DATA.items())
        # An output pruned away to nothing was pruned before unit expansion,
        # and logs at most the weighted rows it removed.
        rules = [step.rule for step in trace.steps]
        assert rules[1:4] == ["opposing-pairs", "always-satisfied-removal", "unit-expand"]
        assert rules.count("always-satisfied-removal") == 1
        removal = trace.steps[2]
        bound = len(out.equations) // 2 if out.equations else removal.pre_m
        assert recorded <= bound
        sizes = [(s.pre_n, s.pre_m, s.post_n, s.post_m) for s in trace.steps]
        assert sizes[0][:2] == (system.n, len(system.equations))
        assert sizes[-1][2:] == (out.n, len(out.equations))
        assert all(a[2:] == b[:2] for a, b in zip(sizes, sizes[1:]))


def test_pipeline_gadgets_write_no_duplicate_rows(monkeypatch):
    copies = 0
    for system in _golden_corpus(random.Random(0x601D)) + [INPUT_COPIES]:
        _, trace = to_eq3_eq3(system)
        steps = {step.rule: step for step in trace.steps}
        dedup = steps["deduplicate"]
        ((_, sources, _),) = dedup.data["groups"]
        pairs = [sources[i : i + 3] for i in range(0, len(sources), 3)]
        for lhs in pairs + [lhs for lhs, _ in dedup.data["triples"]]:
            assert max(lhs) < steps["degree2-triplets"].pre_n
            copies += 1
    assert copies == 1  # the pair of INPUT_COPIES
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    from workloads import PipelineEq3

    for op in PipelineEq3().build(random.Random(101), maxlin2, tiny=True):
        _, trace = to_eq3_eq3(maxlin2.parse_lin2(op.text))
        (dedup,) = [step for step in trace.steps if step.rule == "deduplicate"]
        assert dedup.pre_m == dedup.post_m
        assert dedup.data == {"groups": (("pair", (), b""),), "triples": ()}


@pytest.mark.parametrize(
    "degree, growth",
    [(4, (3, 4)), (5, (4, 5)), (9, (22, 30)), (12, (41, 57)), (16, (65, 91)), (20, (151, 218)),
     (100, (1693, 2491))],
)
def test_degree_rule_growth_is_predicted(degree, growth):
    assert _split_growth(degree) == growth


def test_degree_rule_growth_matches_what_the_split_builds():
    # Every degree up to 40 and four above: one split through K_2^2 or the
    # table for 4 to 8, above it the `_plan` graph and its clones' plans in
    # turn, on a star and on triangles.
    for degree in (*range(4, 41), 66, 67, 100, 200):
        growth = _split_growth(degree)
        star = LinSystem.build(degree + 1, [((0, j), 0, 1) for j in range(1, degree + 1)])
        triangles = LinSystem.build(
            2 * degree + 1, [((0, 2 * j - 1, 2 * j), j & 1, 1) for j in range(1, degree + 1)]
        )
        for system in (star, triangles):
            out, trace = normalize_max_degree3(system)
            assert (out.n - system.n, len(out.lhs) - len(system.lhs)) == growth, degree
            if degree <= 8:
                assert len(trace.steps) == 1
                assert all(c == 3 for c in occurrence_counts(out)[system.n :])


def test_degree_rules_refuse_oversize_output_before_building():
    # Splitting one variable of degree 100,021, the least star degree that
    # does, would build just over 10^7 equations. Every row of the bare star
    # holds a leaf that occurs nowhere else, so the pipeline drops it whole;
    # a unit row on each leaf keeps it.
    rows = [((0, j), 0, 1) for j in range(1, 100022)]
    star = LinSystem.build(100022, rows)
    kept = LinSystem.build(100022, rows + [((j,), 0, 1) for j in range(1, 100022)])
    started = time.monotonic()
    with pytest.raises(CapacityError, match="degree splitting would build 10000004"):
        normalize_max_degree3(star)
    with pytest.raises(CapacityError, match="degree splitting would build 10100025"):
        to_eq3_eq3(kept)
    assert to_eq3_eq3(star)[0].lhs == ()
    assert time.monotonic() - started < 1


def test_pipeline_sizes_its_output_before_building():
    # After always-satisfied-removal no variable occurs once, so the
    # prediction is the output's exact size on every input.
    rng = random.Random(0x5123)
    sweep = [
        random_system(rng, max_vars=10, max_eqs=12, max_weight=3, max_arity=3)
        for _ in range(300)
    ]
    # The chain x_i + x_{i+1} + x_{i+2} = b cascades away whole.
    chain = LinSystem.from_columns(
        1002, [(i, i + 1, i + 2) for i in range(1000)], [i & 1 for i in range(1000)], [1] * 1000
    )
    started = time.monotonic()
    for system in _golden_corpus(random.Random(0x601D)) + [INPUT_COPIES, *sweep, chain]:
        staged, _ = _resolve_opposing_step(normalize(system))
        staged, _ = _remove_always_satisfied_step(staged)
        predicted = _predict_sizes(staged, 4)
        out, _ = to_eq3_eq3(system)
        assert (out.n, len(out.lhs)) == predicted
    assert time.monotonic() - started < 2
    assert predicted == (0, 0)  # the chain's, the last input


def test_pipeline_refuses_a_weight_at_the_bound_promptly():
    # Total weight at the bound, on a cycle that keeps every row. A lone
    # row of that weight is always satisfiable: every target drops it.
    heavy = LinSystem.build(
        2, [((0,), 1, MAX_TOTAL_WEIGHT - 2), ((0, 1), 0, 1), ((1,), 0, 1)]
    )
    alone = LinSystem(1, (Equation((0,), 1, MAX_TOTAL_WEIGHT),))
    started = time.monotonic()
    for target in TARGETS:
        with pytest.raises(CapacityError, match=f"unit expansion would build {MAX_TOTAL_WEIGHT}"):
            reduce_to_target(heavy, target)
        assert reduce_to_target(alone, target)[0].lhs == ()
    assert time.monotonic() - started < 1


def test_a_refused_unit_expansion_plans_no_degree(monkeypatch):
    # The stages are sized one at a time: once unit expansion is refused, no
    # degree is planned, so no plan is ever made above MAX_UNIT_EQUATIONS.
    def unplanned(*args):
        raise AssertionError("sized the degree splits past a refused stage")

    monkeypatch.setattr(maxlin2.gadgets, "_grown", unplanned)
    heavy = LinSystem.build(
        2, [((0,), 1, MAX_TOTAL_WEIGHT - 2), ((0, 1), 0, 1), ((1,), 0, 1)]
    )
    for target in TARGETS:
        with pytest.raises(CapacityError, match=f"^unit expansion would build {MAX_TOTAL_WEIGHT} "):
            reduce_to_target(heavy, target)


def test_reduce_to_target_refuses_an_unknown_target_first():
    # Refused before any work: the arity check, the first, would refuse
    # this arity-4 row with InstanceClassError.
    wide = LinSystem.build(4, [((0, 1, 2, 3), 1, 1)])
    for target in ("bogus", "", "EQ3EQ3"):
        with pytest.raises(ValueError, match="; expected one of deg3, arity3, eq3eq3$") as raised:
            reduce_to_target(wide, target)
        assert raised.value.args[0].startswith(f"unknown target {target!r}")


def test_an_empty_system_indexes_no_rows_and_names_no_variables(monkeypatch):
    # Degree splitting indexes the rows by variable only when a variable
    # splits, and an empty system has none; the writer names only the
    # variables a row holds: none, whatever n is. The occ <= 2 solver needs
    # no row index at all: the cascade finds none.
    def unused(lhs):
        raise AssertionError("indexed the rows of a system where nothing splits")

    monkeypatch.setattr(maxlin2.gadgets, "variable_rows", unused)
    monkeypatch.setattr(maxlin2.occ2, "variable_rows", unused)
    empty = LinSystem.from_columns(MAX_UNIT_EQUATIONS, [], b"", [])
    for target in TARGETS:
        assert reduce_to_target(empty, target)[0].lhs == ()
    result = solve_occ2(empty)
    assert (result.falsified_weight, result.certificate) == (0, ())
    assert len(result.assignment) == MAX_UNIT_EQUATIONS and not any(result.assignment)
    started = time.monotonic()
    assert emit_lin2(empty) == f"p lin2 {MAX_UNIT_EQUATIONS} 0\n"
    assert time.monotonic() - started < 1


def test_degree_splitting_indexes_the_rows_only_when_a_variable_splits(monkeypatch):
    # A C-speed occurrence count finds no variable above 3 in the 4-clique of
    # triples, so no target builds the per-row index; one variable of
    # degree 4 gets one index, which serves its split.
    indexed = []

    def counted(lhs):
        indexed.append(len(lhs))
        return variable_rows(lhs)

    monkeypatch.setattr(maxlin2.gadgets, "variable_rows", counted)
    triples = LinSystem.build(4, [(lhs, 1, 1) for lhs in itertools.combinations(range(4), 3)])
    for target in TARGETS:
        assert reduce_to_target(triples, target)[0].n == 4
    out, trace = normalize_max_degree3(triples)
    assert (out, trace.steps) == (triples, ())
    assert indexed == []
    four = LinSystem.build(5, [((0, j), 0, 1) for j in range(1, 5)])
    assert len(normalize_max_degree3(four)[1].steps) == 1
    assert indexed == [4]


@pytest.mark.parametrize("target", TARGETS)
def test_reduce_sizes_nothing_by_the_header_n(target):
    # The cascade, the row index and the degree checks follow the rows, so
    # a header n of 10^6 over six rows, or over none, costs only the rows.
    for system in (LinSystem.from_columns(10**6, [], b"", []), star_system(10**6)):
        assert traced_peak(lambda: reduce_to_target(system, target)) < 2**20


# --- the (=3,=3) finish on the row store --------------------------------------


def _store(n, rows):
    """A store holding the rows as given, also rows no LinSystem accepts."""
    store = _Rows(LinSystem(n), "finish test")
    store.lhs = [lhs for lhs, _ in rows]
    store.rhs = bytearray(rhs for _, rhs in rows)
    return store


def test_compact_finishes_a_valid_store():
    # Every pair of four variables shares two rows; variable 3 is unused.
    rows = [((0, 1, 2), 0), ((0, 1, 4), 1), ((0, 2, 4), 0), ((1, 2, 4), 1)]
    store = _store(5, rows)
    (step,) = _compact(store)
    renamed = [((0, 1, 2), 0), ((0, 1, 3), 1), ((0, 2, 3), 0), ((1, 2, 3), 1)]
    assert store.system() == LinSystem.build(4, renamed)
    assert step.data["kept"] == (0, 1, 2, 4)
    assert (step.pre_n, step.pre_m, step.post_n, step.post_m) == (5, 4, 4, 4)
    # With no empty slot no row is renumbered, the step records nothing,
    # and both maps are the identity.
    store = _store(4, renamed)
    (step,) = _compact(store)
    assert store.system() == LinSystem.build(4, renamed)
    assert step.data == {}
    assert (step.pre_n, step.pre_m, step.post_n, step.post_m) == (4, 4, 4, 4)
    for bits in itertools.product((0, 1), repeat=4):
        assert _map_forward_step(step, list(bits)) == list(bits)
        assert _map_back_step(step, list(bits)) == list(bits)


@pytest.mark.parametrize("rule", ["compact", "degree4", "arity-expand", "a rule of no kind"])
def test_a_step_replays_its_record_not_its_rule(rule):
    # A step with no record changes no variable, so both maps are the
    # identity on it, whatever its rule; one that changes n with no record
    # is refused by both.
    step = maxlin2.TraceStep(rule, {}, 3, 2, 3, 2)
    assert _map_forward_step(step, [1, 0, 1]) == [1, 0, 1]
    assert _map_back_step(step, [0, 1, 1]) == [0, 1, 1]
    grown = maxlin2.TraceStep(rule, {}, 3, 2, 5, 4)
    with pytest.raises(ContractViolationError, match="changes n but records no map"):
        _map_forward_step(grown, [1, 0, 1])
    with pytest.raises(ContractViolationError, match="changes n but records no map"):
        _map_back_step(grown, [0, 1, 1, 0, 0])


# Stores that break one output contract each, with the check that must fire.
BROKEN_FINISH = {
    # every variable occurs three times, but three rows have two variables
    "arity 2": (3, [((0, 1), 0), ((0, 2), 0), ((1, 2), 0), ((0, 1, 2), 1)], "arity-3"),
    "d = 2": (4, [((0, 1, 2), 0), ((0, 1, 3), 1)], "variable 0 occurring 2 times"),
    "same lhs": (3, [((0, 1, 2), 1)] * 3, "duplicate left-hand sides"),
    # a valid 4-clique on -1..2 with two empty slots, which renumbering
    # would turn into the 4-clique on 0..3
    "variable -1": (5, [((-1, 0, 1), 0), ((-1, 0, 2), 0), ((-1, 1, 2), 0), ((0, 1, 2), 0)],
                    "variable -1 < 0"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_FINISH))
def test_compact_rejects_broken_stores(case):
    n, rows, message = BROKEN_FINISH[case]
    with pytest.raises(ContractViolationError, match=message):
        _compact(_store(n, rows))


def test_compact_checks_the_rows_past_what_deduplication_checked():
    # Variables 0, 1 and 2 occur twice and the rest three times, so a second
    # copy of row 0 leaves every count at 3 and only the lhs set sees it.
    rows = [((0, 1, 2), 1), ((0, 3, 4), 0), ((1, 3, 5), 0), ((2, 4, 5), 0), ((3, 4, 5), 0)]
    store = _store(6, rows)
    _deduplicate(store)
    assert store.checked == len(rows)
    store.lhs.append(store.lhs[0])
    store.rhs.append(store.rhs[0])
    with pytest.raises(ContractViolationError, match="duplicate left-hand sides"):
        _compact(store)


def test_compact_checks_every_row_after_a_pair_gadget():
    # Deduplication that writes a gadget vouches for no row.
    store = _store(3, [((0, 1, 2), 1)] * 2)
    _deduplicate(store)
    assert store.n > 3 and store.checked == 0
    for case in ("arity 2", "same lhs"):
        n, rows, message = BROKEN_FINISH[case]
        store.n, store.lhs = n, [lhs for lhs, _ in rows]
        store.rhs = bytearray(rhs for _, rhs in rows)
        with pytest.raises(ContractViolationError, match=message):
            _compact(store)


def test_compact_checks_survive_python_O():
    # Also the size checks: the whole-output refusal, and the built ==
    # predicted checks of the degree rules and of the pipeline.
    n, rows, _ = BROKEN_FINISH["d = 2"]
    script = (
        "from maxlin2 import LinSystem, gadgets\n"
        "from maxlin2.core import CapacityError, ContractViolationError\n"
        "from maxlin2.gadgets import _Rows, _compact\n"
        f"store = _Rows(LinSystem.build({n}, {rows!r}), 'test')\n"
        "try:\n"
        "    _compact(store)\n"
        "except ContractViolationError:\n"
        "    print(__debug__, 'refused')\n"
        "try:\n"
        "    LinSystem.from_columns(3, [(1, 0, 2)], b'\\x00', [1])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "rows = [((c, c + j), 0, 2) for c in (0, 7001) for j in range(1, 7001)]\n"
        "print(len(gadgets.to_eq3_eq3(LinSystem.build(14002, rows))[0].lhs))\n"
        "leaves = [((c + j,), 0, 1) for c in (0, 7001) for j in range(1, 7001)]\n"
        "star = LinSystem.build(14002, rows + leaves)\n"
        "try:\n"
        "    gadgets.to_eq3_eq3(star)\n"
        "except CapacityError as exc:\n"
        "    print(exc)\n"
        "gadgets._split_growth = lambda degree: (0, 0)\n"
        "for check in (\n"
        "    lambda: gadgets.normalize_max_degree3(LinSystem.build(2, [((0, 1), 0, 1)] * 5)),\n"
        "    lambda: gadgets._check_built(LinSystem.build(1, []), (1, 1)),\n"
        "):\n"
        "    try:\n"
        "        check()\n"
        "    except ContractViolationError as exc:\n"
        "        print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(maxlin2.__file__).parent.parent)}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "False refused\nlhs must be strictly ascending, got (1, 0, 2)\n"
        "0\n"
        f"the (=3,=3) finish would build 12271248 equations, over {MAX_UNIT_EQUATIONS}\n"
        "the pipeline built (10, 15), predicted (2, 5)\n"
        "the pipeline built (1, 0), predicted (1, 1)\n"
    )


def test_pipeline_builds_no_equation_per_row(monkeypatch):
    # Arity <= 3, weights <= 3, and variable 0 in six rows, so every rule
    # runs; variable 9 occurs once, so the singleton cascade drops a row.
    rng = random.Random(0xC015)
    rows = [((0, j), rng.randint(0, 1), rng.randint(1, 3)) for j in range(1, 7)]
    for _ in range(12):
        lhs = rng.sample(range(1, 9), rng.randint(1, 3))
        rows.append((lhs, rng.randint(0, 1), rng.randint(1, 3)))
    rows.append(((1, 2, 9), 1, 1))
    system = LinSystem.build(10, rows)
    built = []
    post_init = Equation.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Equation, "__post_init__", counted)
    out, trace = to_eq3_eq3(system)
    emit_lin2(out)
    forward = trace.map_assignment_forward([rng.randint(0, 1) for _ in range(system.n)])
    trace.map_assignment_back(forward)
    assert len(out.lhs) > 100
    assert built == []
    (removal,) = [s for s in trace.steps if s.rule == "always-satisfied-removal"]
    assert removal.post_m < removal.pre_m


def test_trace_maps_check_assignment_length():
    out, trace = to_eq3_eq3(LinSystem.build(2, [((0, 1), 1, 1)] * 4))
    with pytest.raises(DimensionError):
        trace.map_assignment_forward((0,))
    with pytest.raises(DimensionError):
        trace.map_assignment_back((0,) * (out.n + 1))


def test_trace_maps_reject_entries_other_than_0_or_1():
    # Every gadget and the back map would read a 2 as a value: both maps
    # name the first bad entry instead.
    system = LinSystem.build(3, [((0, 1, 2), 0, 1), ((0, 1), 1, 1), ((2,), 1, 1), ((0, 2), 0, 1)])
    out, trace = to_eq3_eq3(system)
    assert out.n == 25
    cases = [
        (trace.map_assignment_forward, (2, 0, 0), "assignment entry 0 must be 0 or 1, got 2"),
        (trace.map_assignment_forward, (0, 1, -1), "assignment entry 2 must be 0 or 1, got -1"),
        (trace.map_assignment_back, (2,) * 25, "assignment entry 0 must be 0 or 1, got 2"),
        (
            trace.map_assignment_back,
            (0,) * 24 + (None,),
            "assignment entry 24 must be 0 or 1, got None",
        ),
    ]
    for mapping, assignment, message in cases:
        with pytest.raises(ValueError) as caught:
            mapping(assignment)
        assert type(caught.value) is ValueError
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "reader", ["evaluate", "falsified_indices", "map_assignment_back", "map_assignment_forward"]
)
def test_every_assignment_reader_refuses_a_non_bit_and_a_wrong_length(reader):
    # One check in core serves all four: a 2 is refused, not read as a
    # value, and a wrong length gets the same message everywhere.
    system = LinSystem.build(3, [((0, 1, 2), 0, 1), ((0, 1), 1, 1), ((2,), 1, 1), ((0, 2), 0, 1)])
    out, trace = to_eq3_eq3(system)
    read, n = {
        "evaluate": (lambda a: evaluate(system, a), system.n),
        "falsified_indices": (lambda a: maxlin2.falsified_indices(system, a), system.n),
        "map_assignment_back": (trace.map_assignment_back, out.n),
        "map_assignment_forward": (trace.map_assignment_forward, system.n),
    }[reader]
    with pytest.raises(ValueError) as caught:
        read((2,) + (0,) * (n - 1))
    assert type(caught.value) is ValueError
    assert str(caught.value) == "assignment entry 0 must be 0 or 1, got 2"
    with pytest.raises(DimensionError) as caught:
        read((0,) * (n + 1))
    assert str(caught.value) == f"assignment length {n + 1} != variable count {n}"


@st.composite
def pipeline_systems(draw):
    """Small arity <= 3 systems on the pipeline's edge cases.

    n = 0 and ledger-only systems, duplicate and opposing rows, weight-2
    rows, and a hub variable of degree 4 to 8; n stays small enough for the
    oracle, while the reduced system may be far larger.
    """
    n = draw(st.integers(0, 7))
    bits = st.integers(0, 1)
    rows = []
    if n:
        variables = st.integers(0, n - 1)
        lhss = st.lists(variables, min_size=1, max_size=3, unique=True)
        shapes = st.sampled_from(("row", "duplicate", "opposing", "hub"))
        for shape in draw(st.lists(shapes, max_size=4)):
            lhs, rhs, weight = draw(lhss), draw(bits), draw(st.integers(1, 2))
            if shape == "row":
                rows.append((lhs, rhs, weight))
            elif shape == "duplicate":
                rows += [(lhs, rhs, weight)] * 2
            elif shape == "opposing":
                rows += [(lhs, rhs, weight), (lhs, 1 - rhs, draw(st.integers(1, 2)))]
            else:
                hub = lhs[0]
                for _ in range(draw(st.integers(4, 8))):
                    others = draw(st.sets(variables, max_size=2)) - {hub}
                    rows.append(([hub, *others], draw(bits), 1))
    rows += [((), 1, w) for w in draw(st.lists(st.integers(1, 2), max_size=2))]
    return LinSystem.build(n, rows, forced_falsified=draw(st.integers(0, 2)))


@pytest.mark.parametrize("target", TARGETS)
@given(pipeline_systems(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_trace_maps_never_cost_more_and_forward_is_tight(target, system, seed):
    # Every target's maps run from the caller's input, whatever it stops at.
    out, trace = reduce_to_target(system, target)
    rng = random.Random(seed)
    a = tuple(rng.randint(0, 1) for _ in range(system.n))
    assert evaluate(out, trace.map_assignment_forward(a))[1] <= evaluate(system, a)[1]
    b = tuple(rng.randint(0, 1) for _ in range(out.n))
    assert evaluate(system, trace.map_assignment_back(b))[1] <= evaluate(out, b)[1]
    best = brute_force_min_falsified(system)
    forward = trace.map_assignment_forward(best.assignment)
    assert evaluate(out, forward)[1] == best.falsified_weight
    assert evaluate(system, trace.map_assignment_back(forward))[1] == best.falsified_weight

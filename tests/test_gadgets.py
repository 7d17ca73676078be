"""Cost-preserving gadget transformations and the full (=3,=3) pipeline."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
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
    chain_block_parity_check,
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
    to_eq3_eq3,
)
from maxlin2.core import MAX_TOTAL_WEIGHT, ContractViolationError
from maxlin2.gadgets import (
    _compact,
    _deduplicate,
    _enforce_degree,
    _expand_arity,
    _map_forward_step,
    _normalize_degrees,
    _resolve_opposing_step,
    _Rows,
    _split_growth,
    _split_step,
)
from helpers import (
    near_regular_system,
    oddset_is_yes,
    planted_occurrence_system,
    random_system,
)

RNG_SEED = 0x5EED


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
    assert [(e.lhs, e.rhs, e.weight) for e in red.system.equations] == [
        ((0,), 0, 1),
        ((1,), 0, 1),
        ((0, 2), 0, 2),
        ((1, 2), 1, 2),
    ]
    assert red.system.total_weight == 6
    assert red.budget == 1
    assert red.blocks == ((2, 3),)


def test_oddset_singleton_set_collapses():
    red = oddset_to_lin2(OddSetInstance(1, ((0,),), 0))
    assert [(e.lhs, e.rhs, e.weight) for e in red.system.equations] == [
        ((0,), 0, 1),
        ((0,), 1, 1),
    ]


def test_oddset_three_element_block_shape():
    red = oddset_to_lin2(OddSetInstance(3, ((0, 1, 2),), 0))
    block = red.blocks[0]
    assert len(block) == 3
    assert red.system.n == 3 + 2  # two chain variables
    chain_arities = [red.system.equations[j].arity for j in block]
    assert chain_arities == [2, 3, 2]


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


def test_chain_parity_telescopes():
    red = oddset_to_lin2(OddSetInstance(2, ((0, 1),), 1))
    assert chain_block_parity_check(red.system, red.blocks[0], range(2)) == 1


def test_chain_parity_three_elements():
    red = oddset_to_lin2(OddSetInstance(3, ((0, 1, 2),), 2))
    assert chain_block_parity_check(red.system, red.blocks[0], range(3)) == 1


def test_chain_parity_detects_flipped_rhs():
    red = oddset_to_lin2(OddSetInstance(2, ((0, 1),), 1))
    eqs = list(red.system.equations)
    last = red.blocks[0][-1]
    eqs[last] = Equation(eqs[last].lhs, eqs[last].rhs ^ 1, eqs[last].weight)
    broken = LinSystem(red.system.n, tuple(eqs))
    assert chain_block_parity_check(broken, red.blocks[0], range(2)) == 0


def test_chain_parity_rejects_malformed_block():
    red = oddset_to_lin2(OddSetInstance(2, ((0, 1),), 1))
    with pytest.raises(GadgetError):
        chain_block_parity_check(red.system, (), range(2))
    with pytest.raises(GadgetError):
        chain_block_parity_check(red.system, (99,), range(2))


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


def test_degree5plus_distribution_example():
    # All eight occurrences on one variable: sorted original-occurrence
    # degrees must be (1,1,1,1,2,2) with one copy of each tie equation.
    system = LinSystem.build(
        3, [((0, 1), 0, 1)] * 4 + [((0, 2), 1, 1)] * 4
    )
    out, step = _split_step(system, 0, "degree5plus")
    clones = step.data["clones"]
    assert step.data["copies"] == 1
    original_occ = [0] * len(clones)
    for eqn in out.equations[: len(system.equations)]:
        for i, c in enumerate(clones):
            if c in eqn.lhs:
                original_occ[i] += 1
    assert original_occ == [1, 1, 1, 1, 2, 2]
    assert len(out.equations) == len(system.equations) + 9


def test_degree5_split_of_five():
    system = LinSystem.build(2, [((0, 1), 0, 1)] * 5)
    out, step = _split_step(system, 0, "degree5plus")
    clones = step.data["clones"]
    assert step.data["copies"] == 1
    original_occ = [0] * 6
    for eqn in out.equations[:5]:
        for i, c in enumerate(clones):
            if c in eqn.lhs:
                original_occ[i] += 1
    assert original_occ == [0, 1, 1, 1, 1, 1]
    # fresh-variable total degree = original occurrences + 3 * copies
    occ = occurrence_counts(out)
    for i, c in enumerate(clones):
        assert occ[c] == original_occ[i] + 3


def test_degree5plus_preserves_optimum():
    rng = random.Random(4)
    for _ in range(50):
        system = _planted(rng, rng.randint(5, 7), max_vars=4)
        out = reduce_degree5plus(system, 0)
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


def test_triplet_gadget_exhaustive():
    store = _store(5, TRIPLET_ROWS)
    _, step = _enforce_degree(store)
    (triplet,) = step.data["triplets"]
    gadget = list(zip(store.lhs, store.rhs))[len(TRIPLET_ROWS) :]
    fresh = range(step.pre_n, step.post_n)
    held = collections.Counter(v for lhs, _ in gadget for v in lhs)
    assert held == {**dict.fromkeys(triplet, 1), **dict.fromkeys(fresh, 3)}
    assert gadget == sorted(set(gadget))
    assert all(lhs == tuple(sorted(set(lhs))) for lhs, _ in gadget)
    # No gadget row can equal a row outside the gadget.
    assert all(lhs[-1] in fresh for lhs, _ in gadget)
    for bits in itertools.product((0, 1), repeat=3):
        values = [0] * step.pre_n
        for t, bit in zip(triplet, bits):
            values[t] = bit
        satisfying = []
        for completion in itertools.product((0, 1), repeat=len(fresh)):
            full = values + list(completion)
            if all(sum(full[v] for v in lhs) % 2 == rhs for lhs, rhs in gadget):
                satisfying.append(completion)
        assert satisfying == [tuple(_map_forward_step(step, values)[step.pre_n :])]


def test_enforce_removes_always_satisfiable():
    system = LinSystem.build(3, [((0, 1, 2), 1, 1)])
    out, trace = enforce_degree_exactly3(system)
    assert out.equations == ()
    log = trace.steps[0].data["log"]
    assert len(log.steps) == 1


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


# The weight-3 row unit-expands to three copies over variables that occur
# nowhere else, and the weight-2 row to a pair: the input's own duplicates.
INPUT_COPIES = LinSystem.build(6, [((0, 1, 2), 1, 3), ((3, 4, 5), 1, 2)])


def test_dedup_triple_path_end_to_end():
    # Dedup drops the triple copies; only map-back restores their row.
    system = INPUT_COPIES
    out, trace = to_eq3_eq3(system)
    (dedup,) = [step for step in trace.steps if step.rule == "deduplicate"]
    assert dedup.data["triples"] == (((0, 1, 2), 1),)
    rng = random.Random(3)
    for _ in range(200):
        back = trace.map_assignment_back(tuple(rng.randint(0, 1) for _ in range(out.n)))
        assert back[0] ^ back[1] ^ back[2] == 1
    for a in itertools.product((0, 1), repeat=system.n):
        assert evaluate(out, trace.map_assignment_forward(a))[1] <= evaluate(system, a)[1]


def test_dedup_weight2_input_row_gets_the_pair_gadget():
    system = LinSystem.build(3, [((0, 1, 2), 1, 2)])
    out, trace = to_eq3_eq3(system)
    (dedup,) = [step for step in trace.steps if step.rule == "deduplicate"]
    assert dedup.data == {"pairs": (((0, 1, 2), 1),), "triples": ()}
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
    "f6509e2ec6236664149bd28f90af0fdd746469560791d5b1916b1a2faf85a547",
    "7f62ef588eca91dbd39ec48eba4c97af540c06b3e1f2ed3c32b2d32cecfec7bd",
    "c137ea93497f9cdcc1c4d646e34e26a1d7f9893896858bfacff97ce7e67eeaa2",
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
    # The corpus runs both sides of the finish's two early exits: the
    # singleton cascade runs (and drops rows) only when a variable occurs
    # once, and compact renumbers only when a slot is empty.
    cascades = renumbers = 0
    for system in systems:
        steps = {step.rule: step for step in to_eq3_eq3(system)[1].steps}
        removal, compact = steps["always-satisfied-removal"], steps["compact"]
        cascades += removal.post_m < removal.pre_m
        renumbers += compact.post_n < compact.pre_n
    assert (len(systems), cascades, renumbers) == (13, 5, 9)


# Step data that holds equation rows (lhs, rhs); the rest holds variables.
ROW_DATA = ("rows", "expanded", "pairs", "triples")


def test_trace_records_rule_data_and_sizes_only():
    for system in _golden_corpus(random.Random(0x601D)):
        out, trace = to_eq3_eq3(system)
        recorded = 0
        for step in trace.steps:
            for field in dataclasses.fields(step):
                assert not isinstance(getattr(step, field.name), LinSystem)
            assert not any(isinstance(v, LinSystem) for v in step.data.values())
            recorded += sum(len(step.data.get(key, ())) for key in ROW_DATA)
            if "log" in step.data:
                recorded += len(step.data["log"].steps)
        # An output pruned away to nothing still leaves a prune log, of at
        # most the padded rows: three per unit row.
        unit_m = trace.steps[2].post_m
        bound = len(out.equations) // 2 if out.equations else 3 * unit_m
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
        for lhs, _ in dedup.data["pairs"] + dedup.data["triples"]:
            assert max(lhs) < steps["degree2-triplets"].pre_n
            copies += 1
    assert copies == 2  # both from INPUT_COPIES
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    from workloads import PipelineEq3

    for op in PipelineEq3().build(random.Random(101), maxlin2, tiny=True):
        _, trace = to_eq3_eq3(maxlin2.parse_lin2(op.text))
        (dedup,) = [step for step in trace.steps if step.rule == "deduplicate"]
        assert dedup.pre_m == dedup.post_m
        assert dedup.data == {"pairs": (), "triples": ()}


@pytest.mark.parametrize(
    "degree, growth",
    [(4, (3, 4)), (5, (20, 29)), (9, (296, 441)), (12, (347, 516)), (20, (2565, 3839))],
)
def test_degree_rule_growth_is_predicted(degree, growth):
    assert _split_growth(degree, {}) == growth
    star = LinSystem.build(degree + 1, [((0, j), 0, 1) for j in range(1, degree + 1)])
    triangles = LinSystem.build(
        2 * degree + 1, [((0, 2 * j - 1, 2 * j), j & 1, 1) for j in range(1, degree + 1)]
    )
    for system in (star, triangles):
        out, _ = normalize_max_degree3(system)
        assert (out.n - system.n, len(out.equations) - len(system.equations)) == growth


def test_degree_rules_refuse_oversize_output_before_building():
    # Splitting one variable of degree 300 would build about 10^9 equations.
    star = LinSystem.build(301, [((0, j), 0, 1) for j in range(1, 301)])
    started = time.monotonic()
    with pytest.raises(CapacityError):
        normalize_max_degree3(star)
    with pytest.raises(CapacityError):
        to_eq3_eq3(star)
    assert time.monotonic() - started < 1


def test_pipeline_refuses_a_weight_at_the_bound_promptly():
    heavy = LinSystem(1, (Equation((0,), 1, MAX_TOTAL_WEIGHT),))
    started = time.monotonic()
    with pytest.raises(CapacityError):
        to_eq3_eq3(heavy)
    assert time.monotonic() - started < 1


# --- the (=3,=3) finish on the row store --------------------------------------


def _store(n, rows):
    return _Rows(LinSystem.build(n, rows), "finish test")


def test_store_counts_stay_current_through_every_rule():
    for system in _golden_corpus(random.Random(0x601D)):
        staged, _ = _resolve_opposing_step(normalize(system))
        store = _Rows(expand_unit_weights(staged), "count test")
        assert store.occ == occurrence_counts(store.system())
        for rule in (_normalize_degrees, _expand_arity, _enforce_degree, _deduplicate):
            rule(store)
            assert store.occ == occurrence_counts(store.system()), rule.__name__


def test_compact_finishes_a_valid_store():
    # Every pair of four variables shares two rows; variable 3 is unused.
    rows = [((0, 1, 2), 0), ((0, 1, 4), 1), ((0, 2, 4), 0), ((1, 2, 4), 1)]
    out, step = _compact(_store(5, rows))
    renamed = [((0, 1, 2), 0), ((0, 1, 3), 1), ((0, 2, 3), 0), ((1, 2, 3), 1)]
    assert out == LinSystem.build(4, renamed)
    assert step.data["kept"] == (0, 1, 2, 4)
    assert (step.pre_n, step.pre_m, step.post_n, step.post_m) == (5, 4, 4, 4)
    # With no empty slot every variable is kept and no row is renumbered.
    out, step = _compact(_store(4, renamed))
    assert out == LinSystem.build(4, renamed)
    assert step.data["kept"] == (0, 1, 2, 3)
    assert (step.pre_n, step.pre_m, step.post_n, step.post_m) == (4, 4, 4, 4)


# Stores that break one output contract each, with the check that must fire.
BROKEN_FINISH = {
    # every variable occurs three times, but three rows have two variables
    "arity 2": (3, [((0, 1), 0), ((0, 2), 0), ((1, 2), 0), ((0, 1, 2), 1)], "arity-3"),
    "d = 2": (4, [((0, 1, 2), 0), ((0, 1, 3), 1)], "variable 0 occurring 2 times"),
    "same lhs": (3, [((0, 1, 2), 1)] * 3, "duplicate left-hand sides"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_FINISH))
def test_compact_rejects_broken_stores(case):
    n, rows, message = BROKEN_FINISH[case]
    with pytest.raises(ContractViolationError, match=message):
        _compact(_store(n, rows))


def test_compact_checks_survive_python_O():
    n, rows, _ = BROKEN_FINISH["d = 2"]
    script = (
        "from maxlin2 import LinSystem\n"
        "from maxlin2.core import ContractViolationError\n"
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
    )


def test_pipeline_builds_no_equation_per_row(monkeypatch):
    # Arity <= 3, weights <= 3, and variable 0 in six rows, so every rule
    # runs; only the always-satisfied-removal log may hold Equation objects.
    rng = random.Random(0xC015)
    rows = [((0, j), rng.randint(0, 1), rng.randint(1, 3)) for j in range(1, 7)]
    for _ in range(12):
        lhs = rng.sample(range(1, 9), rng.randint(1, 3))
        rows.append((lhs, rng.randint(0, 1), rng.randint(1, 3)))
    system = LinSystem.build(9, rows)
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
    assert len(out.equations) > 100
    (removal,) = [s for s in trace.steps if s.rule == "always-satisfied-removal"]
    assert len(built) <= len(removal.data["log"].steps)


def test_trace_maps_check_assignment_length():
    out, trace = to_eq3_eq3(LinSystem.build(2, [((0, 1), 1, 1)] * 4))
    with pytest.raises(DimensionError):
        trace.map_assignment_forward((0,))
    with pytest.raises(DimensionError):
        trace.map_assignment_back((0,) * (out.n + 1))


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


@given(pipeline_systems(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_trace_maps_never_cost_more_and_forward_is_tight(system, seed):
    out, trace = to_eq3_eq3(system)
    rng = random.Random(seed)
    a = tuple(rng.randint(0, 1) for _ in range(system.n))
    assert evaluate(out, trace.map_assignment_forward(a))[1] <= evaluate(system, a)[1]
    b = tuple(rng.randint(0, 1) for _ in range(out.n))
    assert evaluate(system, trace.map_assignment_back(b))[1] <= evaluate(out, b)[1]
    best = brute_force_min_falsified(system)
    forward = trace.map_assignment_forward(best.assignment)
    assert evaluate(out, forward)[1] == best.falsified_weight
    assert evaluate(system, trace.map_assignment_back(forward))[1] == best.falsified_weight

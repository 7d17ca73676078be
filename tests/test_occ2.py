"""Exact solver for occurrence-at-most-2 systems, both routes, and the
pipeline's singleton cascade that drops always-satisfiable rows."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxlin2 import (
    Equation,
    InstanceClassError,
    LinSystem,
    brute_force_min_falsified,
    evaluate,
    normalize,
    occurrence_counts,
    solve_below_W,
    solve_occ2,
    solve_occ2_merge,
)
from maxlin2.core import _satisfy_removed, singleton_cascade
from helpers import random_system, star_system, traced_peak


def _without(system: LinSystem, rows) -> LinSystem:
    """The system with the given rows deleted."""
    gone = set(rows)
    kept = (e for j, e in enumerate(system.equations) if j not in gone)
    return LinSystem(system.n, tuple(kept), system.forced_falsified)


def test_prune_cascade():
    system = LinSystem.build(3, [((0, 1), 1, 1), ((1, 2), 0, 1), ((2,), 1, 1)])
    deleted = singleton_cascade(system.lhs)
    assert sorted(j for j, _ in deleted) == [0, 1, 2]
    removed = [(system.lhs[j], system.rhs[j], w) for j, w in deleted]
    extended = _satisfy_removed(removed, [0, 0, 0])
    assert evaluate(system, extended)[1] == 0


def test_prune_no_singleton():
    system = LinSystem.build(2, [((0, 1), 0, 1), ((0, 1), 1, 1)])
    assert singleton_cascade(system.lhs) == []


def test_prune_single_equation():
    system = LinSystem.build(1, [((0,), 1, 5)])
    assert singleton_cascade(system.lhs) == [(0, 0)]
    assert _satisfy_removed([((0,), 1, 0)], [0]) == [1]


# An odd cycle over rows 0-2 beside a chain whose ends are singletons.
CYCLE_AND_CHAIN = LinSystem.build(
    6,
    [((0, 1), 1, 3), ((1, 2), 0, 1), ((0, 2), 0, 2), ((3, 4), 1, 1), ((4, 5), 0, 1)],
)


def test_cascade_stops_when_no_singleton_is_left():
    # The chain goes; the cycle has no singleton, so it stays.
    assert singleton_cascade(CYCLE_AND_CHAIN.lhs) == [(3, 3), (4, 4)]


def test_solve_occ2_satisfies_the_chain_and_drops_the_cycles_lightest_row():
    result = solve_occ2(CYCLE_AND_CHAIN)
    assert (result.falsified_weight, result.certificate) == (1, (1,))
    assert evaluate(CYCLE_AND_CHAIN, result.assignment)[1] == 1


def test_solve_occ2_refuses_the_star_before_allocating():
    # The occurrence check counts over the rows, not over the header's n.
    star = star_system(10**6)

    def refuse():
        with pytest.raises(InstanceClassError, match="^variable 0 occurs 4 times; at most 2 allowed$"):
            solve_occ2(star)

    assert traced_peak(refuse) < 2**20


@pytest.mark.parametrize("solver", [solve_occ2, solve_occ2_merge])
def test_occ2_solvers_refuse_with_the_lowest_most_held_variable(solver):
    # Both solvers check the bound from their own count: solve_occ2 from a
    # list over the held variables, solve_occ2_merge from its row index,
    # which lists variable 5 before variable 1. Both hold three rows.
    rows = [((2, 5), 0), ((3, 5), 0), ((4, 5), 0), ((1, 6), 0), ((1, 7), 0), ((1, 8), 0)]
    cases = [
        (LinSystem.build(9, rows), "variable 1 occurs 3 times; at most 2 allowed"),
        (star_system(10**6), "variable 0 occurs 4 times; at most 2 allowed"),
    ]
    for system, message in cases:

        def refuse():
            with pytest.raises(InstanceClassError) as caught:
                solver(system)
            assert type(caught.value) is InstanceClassError
            assert str(caught.value) == message

        assert traced_peak(refuse) < 2**20


def test_prune_log_takes_lowest_singleton_first():
    rng = random.Random(0x9E1)
    for _ in range(300):
        system = random_system(
            rng, max_vars=9, max_eqs=12, max_weight=3, max_arity=3, max_occurrence=3
        )
        deleted = singleton_cascade(system.lhs)
        gone: list[int] = []
        for j, witness in deleted:
            occ = occurrence_counts(_without(system, gone))
            assert witness == occ.index(1)
            assert witness in system.lhs[j]
            assert j not in gone
            gone.append(j)
        assert 1 not in occurrence_counts(_without(system, gone))


def test_split_disjoint():
    # An opposing pair (loses 2) beside an odd triangle (loses its weight 1).
    system = LinSystem.build(
        5,
        [
            ((0, 1), 1, 3),
            ((0, 1), 0, 2),
            ((2, 3), 1, 4),
            ((3, 4), 0, 1),
            ((2, 4), 0, 5),
        ],
    )
    result = solve_occ2(system)
    assert result.falsified_weight == 3
    assert result.certificate == (1, 3)
    assert solve_occ2_merge(system) == 3


def test_split_triangle():
    # An odd triangle with a pendant variable is one satisfiable component.
    system = LinSystem.build(
        4, [((0, 1), 1, 1), ((1, 2), 0, 1), ((0, 2, 3), 0, 1)]
    )
    result = solve_occ2(system)
    assert result.falsified_weight == 0
    assert solve_occ2_merge(system) == 0


def test_split_empty():
    result = solve_occ2(LinSystem(0))
    assert (result.assignment, result.falsified_weight, result.certificate) == (
        (),
        0,
        (),
    )
    assert solve_occ2_merge(LinSystem(2, (), forced_falsified=3)) == 3


def test_solve_occ2_inconsistent_triangle():
    system = LinSystem.build(
        3, [((0, 1), 1, 2), ((1, 2), 0, 3), ((0, 2), 0, 1)]
    )
    result = solve_occ2(system)
    assert result.falsified_weight == 1
    assert result.certificate == (2,)  # the weight-1 equation is dropped
    assert brute_force_min_falsified(system).falsified_weight == 1


# An odd triangle of equal weights: it loses one row, and ties go to the
# first row as given.
TIED_TRIANGLE = LinSystem.build(3, [((1, 2), 0, 1), ((0, 2), 0, 1), ((0, 1), 1, 1)])


def test_odd_component_loses_its_first_lightest_row():
    result = solve_occ2(TIED_TRIANGLE)
    assert (result.falsified_weight, result.certificate) == (1, (0,))


def test_solve_occ2_consistent_triangle():
    system = LinSystem.build(
        3, [((0, 1), 0, 5), ((1, 2), 0, 5), ((0, 2), 0, 5)]
    )
    result = solve_occ2(system)
    assert result.falsified_weight == 0
    assert result.assignment == (0, 0, 0)


def test_solve_occ2_weighted_pair():
    system = LinSystem.build(1, [((0,), 0, 1), ((0,), 1, 2)])
    result = solve_occ2(system)
    assert result.falsified_weight == 1
    assert brute_force_min_falsified(system).falsified_weight == 1


def test_solve_occ2_rejects_occurrence_violation():
    system = LinSystem.build(2, [((0,), 0, 1), ((0,), 1, 1), ((0, 1), 0, 1)])
    with pytest.raises(InstanceClassError):
        solve_occ2(system)
    with pytest.raises(InstanceClassError):
        solve_occ2_merge(system)


def test_merge_contradictory_pair():
    assert solve_occ2_merge(LinSystem.build(1, [((0,), 0, 1), ((0,), 1, 2)])) == 1


def test_merge_consistent_chain():
    system = LinSystem.build(3, [((0, 1), 1, 2), ((1, 2), 0, 3)])
    assert solve_occ2_merge(system) == 0


def _components(system: LinSystem) -> list[LinSystem]:
    """Connected components of the shared-variable graph, by union-find."""
    parent = list(range(len(system.equations)))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    first: dict[int, int] = {}
    for j, eqn in enumerate(system.equations):
        for v in eqn.lhs:
            parent[find(j)] = find(first.setdefault(v, j))
    groups: dict[int, list[Equation]] = {}
    for j, eqn in enumerate(system.equations):
        groups.setdefault(find(j), []).append(eqn)
    return [LinSystem(system.n, tuple(eqs)) for eqs in groups.values()]


def test_rank_structure_of_pruned_components():
    # After pruning every variable occurs exactly twice, so each component's
    # rows sum to zero: it loses its lightest equation iff its rhs bits XOR
    # to 1, and nothing once any single equation is dropped.
    rng = random.Random(5150)
    checked = 0
    for _ in range(200):
        system = random_system(
            rng, max_vars=9, max_eqs=12, max_weight=4, max_occurrence=2
        )
        system = normalize(system)
        deleted = singleton_cascade(system.lhs)
        pruned = _without(system, [j for j, _ in deleted])
        assert set(occurrence_counts(pruned)) <= {0, 2}
        for component in _components(pruned):
            eqs = component.equations
            parity = sum(e.rhs for e in eqs) % 2
            loss = min(e.weight for e in eqs) if parity else 0
            assert brute_force_min_falsified(component).falsified_weight == loss
            result = solve_occ2(component)
            assert result.falsified_weight == loss
            # Rows come in (lhs, rhs) order, so the lightest row is the
            # first of least weight.
            lightest = min(range(len(eqs)), key=lambda j: eqs[j].weight)
            assert result.certificate == ((lightest,) if parity else ())
            for drop in range(len(eqs)):
                sub = LinSystem(component.n, eqs[:drop] + eqs[drop + 1 :])
                assert solve_occ2_merge(sub) == 0
            checked += 1
    assert checked >= 50


def test_both_solvers_match_oracle():
    rng = random.Random(777)
    for _ in range(250):
        system = random_system(
            rng, max_vars=9, max_eqs=12, max_weight=5, max_occurrence=2
        )
        expected = brute_force_min_falsified(system).falsified_weight
        result = solve_occ2(system)
        assert result.falsified_weight == expected
        assert evaluate(system, result.assignment)[1] == expected
        assert solve_occ2_merge(system) == expected


def test_prune_preserves_optimum():
    rng = random.Random(4242)
    for _ in range(120):
        system = random_system(
            rng, max_vars=8, max_eqs=10, max_weight=4, max_occurrence=2
        )
        deleted = singleton_cascade(system.lhs)
        pruned = _without(system, [j for j, _ in deleted])
        best = brute_force_min_falsified(pruned)
        assert best.falsified_weight == brute_force_min_falsified(system).falsified_weight
        # Replaying the witnesses satisfies every dropped row.
        removed = [(system.lhs[j], system.rhs[j], w) for j, w in deleted]
        extended = _satisfy_removed(removed, list(best.assignment))
        assert evaluate(system, extended)[1] == best.falsified_weight


def _falsified_rows(system: LinSystem, assignment) -> list[int]:
    """The rows the assignment falsifies, counted row by row."""
    return [
        j
        for j, (lhs, b) in enumerate(zip(system.lhs, system.rhs))
        if (b + sum(assignment[v] for v in lhs)) % 2
    ]


def _mixed_occ2_system(rng: random.Random) -> tuple[LinSystem, list[int]]:
    """Cycles, chains, repeated rows, opposing pairs and constant rows over
    about 10^4 variables, rows and variables shuffled; with the rows the
    closed form loses: the first lightest row of each pendant-free
    component whose rhs bits XOR to 1."""
    n = 0
    components = []  # (rows, pendant-free)
    while n < 10**4:
        shape = rng.choice(
            ("cycle", "pendant cycle", "chain", "repeated", "opposing", "constant")
        )
        size = rng.randint(3, 40)
        if shape in ("cycle", "pendant cycle"):
            cycle = list(range(n, n + size))
            lhss = [[u, v] for u, v in zip(cycle, cycle[1:] + cycle[:1])]
            n += size
            if shape == "pendant cycle":
                lhss[rng.randrange(size)].append(n)
                n += 1
            bits = [rng.randint(0, 1) for _ in lhss]
        elif shape == "chain":
            lhss = [[v, v + 1] for v in range(n, n + size)]
            n += size + 1
            bits = [rng.randint(0, 1) for _ in lhss]
        elif shape == "constant":
            lhss, bits = [[]], [rng.randint(0, 1)]
        else:
            arity = rng.randint(1, 3)
            lhss = [list(range(n, n + arity))] * 2
            n += arity
            b = rng.randint(0, 1)
            bits = [b, b ^ (shape == "opposing")]
        rows = [(lhs, b, rng.randint(1, 5)) for lhs, b in zip(lhss, bits)]
        components.append((rows, shape not in ("pendant cycle", "chain")))
    label = list(range(n))
    rng.shuffle(label)
    tagged = [(row, c) for c, (rows, _) in enumerate(components) for row in rows]
    rng.shuffle(tagged)
    members: list[list[int]] = [[] for _ in components]
    for j, (_, c) in enumerate(tagged):
        members[c].append(j)
    rows = [(sorted(label[v] for v in lhs), b, w) for (lhs, b, w), _ in tagged]
    lost = []
    for (_, pendant_free), ids in zip(components, members):
        if pendant_free and sum(rows[j][1] for j in ids) % 2:
            lost.append(min(ids, key=lambda j: rows[j][2]))
    return LinSystem.build(n, rows), sorted(lost)


def _long_odd_cycle(length: int) -> tuple[LinSystem, list[int]]:
    """Rows (i, i+1) closed by (0, length-1), rhs 1 only on row 0; weights
    2 and up, with 1 on rows length/3 and 2·length/3: it loses the first."""
    lhss = [(i, i + 1) for i in range(length - 1)] + [(0, length - 1)]
    weights = [2 + i * 7919 % 1000 for i in range(length)]
    weights[length // 3] = weights[2 * length // 3] = 1
    rhs = [1] + [0] * (length - 1)
    return LinSystem.from_columns(length, lhss, rhs, weights), [length // 3]


def _long_chain(length: int) -> tuple[LinSystem, list[int]]:
    """Rows (i, i+1) with seeded rhs bits: both ends are pendant, so it
    loses nothing."""
    rng = random.Random(length)
    lhss = [(i, i + 1) for i in range(length)]
    rhs = [rng.randint(0, 1) for _ in lhss]
    weights = [rng.randint(1, 9) for _ in lhss]
    return LinSystem.from_columns(length + 1, lhss, rhs, weights), []


@pytest.mark.parametrize(
    "build",
    [
        lambda: _long_odd_cycle(2 * 10**5),
        lambda: _long_chain(2 * 10**5),
        lambda: _mixed_occ2_system(random.Random(0x0CC2)),
    ],
    ids=["odd-cycle", "chain", "mixed"],
)
def test_solve_occ2_beyond_the_oracle_matches_the_closed_form(build):
    system, lost = build()
    value = sum(system.weights[j] for j in lost)
    result = solve_occ2(system)
    assert result.falsified_weight == value
    assert evaluate(system, result.assignment)[1] == value
    assert list(result.certificate) == _falsified_rows(system, result.assignment) == lost
    assert solve_occ2_merge(system) == value


@st.composite
def occ2_systems(draw):
    """Occurrence <= 2 systems with the shapes random_system never makes.

    Besides free rows there are constant rows, duplicate and opposing pairs,
    odd-parity cycles (with a pendant variable when arity 3 is allowed),
    unused variables, n = 0 and an input forced_falsified ledger.
    """
    max_arity = draw(st.sampled_from((2, 3)))
    weights = st.integers(1, 5)
    n = 0
    once: list[int] = []  # variables that so far occur in one row
    rows = []

    def fresh(count: int) -> list[int]:
        nonlocal n
        n += count
        return list(range(n - count, n))

    shapes = st.sampled_from(("row", "pair", "constant", "cycle"))
    for shape in draw(st.lists(shapes, max_size=6)):
        if n >= 6:  # keeps n <= 13 for the oracle
            break
        if shape == "row":
            arity = draw(st.integers(1, max_arity))
            reuse = draw(
                st.lists(st.sampled_from(once), unique=True, max_size=arity)
                if once
                else st.just([])
            )
            once = [v for v in once if v not in reuse]
            new = fresh(arity - len(reuse))
            once += new
            rows.append((reuse + new, draw(st.integers(0, 1)), draw(weights)))
        elif shape == "pair":
            lhs = fresh(draw(st.integers(1, max_arity)))
            rows.append((lhs, draw(st.integers(0, 1)), draw(weights)))
            rows.append((lhs, draw(st.integers(0, 1)), draw(weights)))
        elif shape == "constant":
            rows.append(((), draw(st.integers(0, 1)), draw(weights)))
        else:
            cycle = fresh(draw(st.integers(3, 4)))
            bits = draw(st.lists(st.integers(0, 1), min_size=len(cycle) - 1,
                                 max_size=len(cycle) - 1))
            bits.append(1 ^ sum(bits) % 2)
            lhss = [[u, v] for u, v in zip(cycle, cycle[1:] + cycle[:1])]
            if max_arity == 3:
                lhss[0] += fresh(1)
            rows += [(lhs, b, draw(weights)) for lhs, b in zip(lhss, bits)]
    n += draw(st.integers(0, 2))
    return LinSystem.build(n, rows, forced_falsified=draw(st.integers(0, 3)))


@given(occ2_systems())
# The row shapes a normalized copy would absorb, read as given: a repeated
# row, an opposing pair, 0 = 1 and 0 = 0 rows, and an input ledger.
@example(LinSystem.build(3, [((0, 1), 1, 2), ((2,), 0, 1), ((0, 1), 1, 3)]))
@example(LinSystem.build(3, [((0, 1), 0, 3), ((2,), 1, 1), ((0, 1), 1, 2)]))
@example(LinSystem.build(1, [((), 1, 4), ((0,), 1, 1), ((), 0, 9), ((0,), 0, 2)]))
@example(LinSystem.build(2, [((0,), 1, 2), ((), 1, 1), ((0,), 0, 1)], forced_falsified=3))
@example(TIED_TRIANGLE)
@settings(max_examples=300, deadline=None)
def test_occ2_solvers_agree_with_oracle_on_edge_cases(system):
    optimum = brute_force_min_falsified(system).falsified_weight
    result = solve_occ2(system)
    assert result.falsified_weight == optimum
    assert evaluate(system, result.assignment)[1] == optimum
    assert solve_occ2_merge(system) == optimum
    if all(e.arity <= 2 for e in system.equations):
        yes = solve_below_W(system, optimum)
        assert yes is not None and yes.falsified_weight == optimum
        if optimum > 0:
            assert solve_below_W(system, optimum - 1) is None


# sha256 over every answer of test_solver_golden_digest, taken from the
# solvers before solve_occ2 shared the cascade's holder pass and replay and
# before the two-variable engine numbered its own vertices.
SOLVER_GOLDEN = "58ef268ad240249f6eb8ca170b51f4957588b4e8e99ce6d15b3730d68aa23e46"


def _golden_system(rng: random.Random, max_arity: int, occ2: bool) -> LinSystem:
    """A small system of unary, chain, cycle, repeated, opposing and constant
    rows, shuffled, with unused variables and an input ledger. With occ2 each
    shape takes fresh variables, so none occurs more than twice (a cycle of
    arity 3 gets a pendant variable); otherwise the variables repeat freely."""
    n, rows = rng.randint(0, 2), []
    for _ in range(rng.randint(0, 7)):
        shape = rng.choice(("unary", "chain", "cycle", "repeated", "opposing", "constant"))
        size = rng.randint(2, 4)
        if shape == "constant":
            lhss = [()]
        elif not occ2 and n and shape in ("repeated", "opposing"):
            lhss = [tuple(rng.sample(range(n), rng.randint(1, min(max_arity, n))))] * 2
        elif shape in ("repeated", "opposing"):
            lhss = [tuple(range(n, n + rng.randint(1, max_arity)))] * 2
        elif shape == "unary":
            lhss = [(n,)]
        elif shape == "chain":
            lhss = [(v, v + 1) for v in range(n, n + size)]
        else:
            ring = list(range(n, n + size + 1))
            lhss = list(zip(ring, ring[1:] + ring[:1]))
            if max_arity == 3:
                lhss[0] += (n + size + 1,)
        if not occ2 and n and shape in ("unary", "chain", "cycle"):
            lhss = [tuple(min(v, rng.randrange(n + size + 2)) for v in lhs) for lhs in lhss]
        bits = [rng.randint(0, 1) for _ in lhss]
        if shape == "opposing":
            bits[1] = 1 - bits[0]
        elif shape == "repeated":
            bits[1] = bits[0]
        rows += [(lhs, b, rng.randint(1, 4)) for lhs, b in zip(lhss, bits)]
        n = max([n, *(v + 1 for lhs in lhss for v in lhs)])
    rows = [(set(lhs), b, w) for lhs, b, w in rows]
    rng.shuffle(rows)
    label = list(range(n + rng.randint(0, 2)))
    rng.shuffle(label)
    rows = [(sorted(label[v] for v in lhs), b, w) for lhs, b, w in rows]
    return LinSystem.build(len(label), rows, forced_falsified=rng.randint(0, 2))


def test_solver_golden_digest():
    # Unedited across refactors of either solver: every assignment, weight
    # and certificate must stay the same, bit for bit.
    rng = random.Random(0x501D)
    digest = hashlib.sha256()
    answers = 0
    for i in range(400):
        system = _golden_system(rng, 2 + i % 2, occ2=True)
        result = solve_occ2(system)
        digest.update(repr((result.assignment, result.falsified_weight, result.certificate)).encode())
        two = _golden_system(rng, 2, occ2=i % 3 == 0)
        for k in (rng.randint(0, 4), rng.randint(0, 9)):
            result = solve_below_W(two, k)
            if result is None:
                digest.update(b"-")
            else:
                answers += 1
                digest.update(repr((result.assignment, result.falsified_weight, result.certificate)).encode())
    assert (digest.hexdigest(), answers) == (SOLVER_GOLDEN, 388)

"""Data-model operations: evaluation, normalization, profiling."""

from __future__ import annotations

import ast
import random
from functools import reduce
from operator import xor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxlin2
from maxlin2 import (
    CapacityError,
    DimensionError,
    Equation,
    LinSystem,
    brute_force_min_falsified,
    evaluate,
    expand_unit_weights,
    normalize,
    occurrence_counts,
    profile,
)
from maxlin2.core import MAX_TOTAL_WEIGHT, MAX_UNIT_EQUATIONS, holders, occurrences, variable_rows
from helpers import star_system, traced_peak


def test_evaluate_both_satisfied():
    system = LinSystem.build(2, [((0, 1), 1, 2), ((0,), 0, 1)])
    assert evaluate(system, (0, 1)) == (3, 0)


def test_evaluate_both_falsified():
    system = LinSystem.build(2, [((0, 1), 1, 2), ((0,), 0, 1)])
    assert evaluate(system, (1, 1)) == (0, 3)


def test_evaluate_empty_system():
    assert evaluate(LinSystem(0), ()) == (0, 0)


def test_evaluate_rejects_wrong_length():
    system = LinSystem.build(2, [((0, 1), 1, 1)])
    with pytest.raises(DimensionError):
        evaluate(system, (0,))


def test_evaluate_counts_forced_falsified():
    system = LinSystem.build(1, [((0,), 0, 1)], forced_falsified=4)
    assert evaluate(system, (0,)) == (1, 4)


def test_normalize_merges_identical():
    system = LinSystem.build(1, [((0,), 0, 1), ((0,), 0, 2)])
    merged = normalize(system)
    assert merged.equations == (Equation((0,), 0, 3),)
    assert merged.forced_falsified == 0


def test_normalize_moves_contradiction_to_ledger():
    system = LinSystem.build(1, [((), 1, 4), ((0,), 0, 1)])
    out = normalize(system)
    assert out.equations == (Equation((0,), 0, 1),)
    assert out.forced_falsified == 4


def test_normalize_drops_tautology():
    out = normalize(LinSystem.build(1, [((), 0, 9)]))
    assert out.equations == ()
    assert out.forced_falsified == 0


def test_expand_unit_weights_splits_copies():
    out = expand_unit_weights(LinSystem.build(1, [((0,), 0, 3)]))
    assert out.equations == (Equation((0,), 0, 1),) * 3


def test_expand_unit_weights_fixed_point():
    system = LinSystem.build(2, [((0,), 1, 1), ((0, 1), 0, 1)])
    assert expand_unit_weights(system) == system


def test_expand_unit_weights_refuses_huge_total_before_building():
    system = LinSystem.build(2, [((0,), 1, MAX_UNIT_EQUATIONS), ((1,), 0, 1)])
    with pytest.raises(CapacityError):
        expand_unit_weights(system)


def test_expand_unit_weights_mixed():
    out = expand_unit_weights(
        LinSystem.build(2, [((0, 1), 1, 2), ((1,), 0, 1)])
    )
    assert out.equations == (
        Equation((0, 1), 1, 1),
        Equation((0, 1), 1, 1),
        Equation((1,), 0, 1),
    )


def test_profile_counts_copies_separately():
    system = LinSystem.build(3, [((0, 1, 2), 0, 1)] * 3)
    prof = profile(system)
    assert (prof.max_arity, prof.max_occurrence) == (3, 3)
    assert (prof.num_equations, prof.total_weight) == (3, 3)
    assert not prof.distinct_lhs


def test_profile_empty():
    prof = profile(LinSystem(0))
    assert (prof.max_arity, prof.max_occurrence, prof.num_equations) == (0, 0, 0)
    assert prof.total_weight == 0
    assert prof.unit_weights and prof.distinct_lhs


@pytest.mark.parametrize(
    "system, max_occurrence",
    [(LinSystem.from_columns(10**6, [], b"", []), 0), (star_system(10**6), 4)],
    ids=["empty", "star"],
)
def test_profile_sizes_nothing_by_the_header_n(system, max_occurrence):
    # The counts follow the rows: a header n of 10^6 adds no per-slot list.
    assert traced_peak(lambda: profile(system)) < 2**20
    assert profile(system).max_occurrence == max_occurrence


def test_holders_match_the_row_index():
    # The shared index of the singleton cascade and solve_occ2: count is the
    # occurrence count and holder the XOR of the ids of the rows holding each
    # variable, both sized by the largest variable a row holds.
    rng = random.Random(0x401D)
    columns = [
        [tuple(sorted(rng.sample(range(0, 30, rng.randint(1, 3)), rng.randint(0, 4))))
         for _ in range(rng.randint(0, 12))]
        for _ in range(200)
    ]
    columns += [[], [()], [(), (3,), (), (3, 10**5 - 1), (10**5 - 1,)]]
    for lhs in columns:
        count, holder = holders(lhs)
        rows = variable_rows(lhs)
        span = max((v + 1 for row in lhs for v in row), default=0)
        assert len(count) == len(holder) == span
        assert {v: c for v, c in enumerate(count) if c} == occurrences(lhs)
        assert holder == [reduce(xor, rows[v], 0) for v in range(span)]


def test_profile_single_weighted_equation():
    prof = profile(LinSystem.build(1, [((0,), 1, 5)]))
    assert (prof.max_arity, prof.max_occurrence) == (1, 1)
    assert (prof.num_equations, prof.total_weight) == (1, 5)
    assert not prof.unit_weights


def test_equation_validation():
    with pytest.raises(ValueError):
        Equation((1, 0), 0, 1)
    with pytest.raises(ValueError):
        Equation((0,), 2, 1)
    with pytest.raises(ValueError):
        Equation((0,), 0, 0)
    with pytest.raises(ValueError):
        Equation.make((0, 0), 1)


def test_system_range_check():
    with pytest.raises(ValueError):
        LinSystem(1, (Equation((1,), 0, 1),))


def test_total_weight_overflow_check():
    with pytest.raises(OverflowError):
        LinSystem(1, (Equation((0,), 0, 2**63 - 1), Equation((0,), 1, 2)))


def test_normalize_merges_to_exactly_the_weight_bound():
    rows = (Equation((0,), 1, MAX_TOTAL_WEIGHT - 1), Equation((0,), 1, 1))
    merged = normalize(LinSystem(1, rows))
    assert merged.equations == (Equation((0,), 1, MAX_TOTAL_WEIGHT),)
    assert merged.total_weight == MAX_TOTAL_WEIGHT
    with pytest.raises(OverflowError):
        LinSystem(1, rows + (Equation((0,), 1, 1),))


def test_normalize_keeps_unmerged_equations_as_given(monkeypatch):
    a, b, c = Equation((1,), 0, 2), Equation((0, 1), 1, 3), Equation((0, 1), 1, 4)
    system = LinSystem(2, (a, b, c))
    built = []
    post_init = Equation.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Equation, "__post_init__", counted)
    out = normalize(system)
    # Columns: no row is rebuilt, and the unmerged row keeps its lhs tuple.
    assert built == []
    assert out.lhs[1] is a.lhs
    assert out.equations == (Equation((0, 1), 1, 7), a)


def test_equation_and_system_have_no_instance_dict():
    eqn = Equation((0,), 1)
    system = LinSystem(1, (eqn,))
    for value in (eqn, system):
        assert not hasattr(value, "__dict__")
    assert eqn == Equation((0,), 1) and hash(eqn) == hash(Equation((0,), 1))
    assert system == LinSystem(1, (Equation((0,), 1),))


# --- columns and the equations view ----------------------------------------

VIEW_ROWS = (Equation((0, 1), 1, 2), Equation((2,), 0, 1), Equation((1, 2), 0, 3))


def test_columns_and_equations_build_equal_systems():
    by_rows = LinSystem(3, VIEW_ROWS, 2)
    by_columns = LinSystem.from_columns(
        3,
        [e.lhs for e in VIEW_ROWS],
        bytes(e.rhs for e in VIEW_ROWS),
        [e.weight for e in VIEW_ROWS],
        2,
    )
    assert by_rows == by_columns and hash(by_rows) == hash(by_columns)
    assert (by_columns.lhs, by_columns.rhs) == (((0, 1), (2,), (1, 2)), b"\x01\x00\x00")
    assert by_columns.weights == (2, 1, 3)
    assert by_rows != LinSystem(3, VIEW_ROWS, 1)
    assert by_rows != LinSystem(3, VIEW_ROWS[::-1], 2)
    assert by_rows != LinSystem(4, VIEW_ROWS, 2)
    # The round trip that re-reads a system with another ledger.
    again = LinSystem(by_columns.n, by_columns.equations, 2)
    assert again == by_rows and hash(again) == hash(by_rows)


def test_equations_view_reads_like_the_tuple(monkeypatch):
    system = LinSystem(3, VIEW_ROWS)
    view = system.equations
    assert view == VIEW_ROWS and VIEW_ROWS == view
    assert not view != VIEW_ROWS and not VIEW_ROWS != view
    assert view != VIEW_ROWS[:2] and VIEW_ROWS[:2] != view
    assert view[0] == VIEW_ROWS[0] and view[-1] == VIEW_ROWS[-1]
    assert view[1:] == VIEW_ROWS[1:] and view[::-1] == VIEW_ROWS[::-1]
    assert list(view) == list(VIEW_ROWS)
    assert VIEW_ROWS[1] in view and Equation((0,), 0, 1) not in view
    with pytest.raises(IndexError):
        view[3]
    # View against view compares the columns.
    assert view == LinSystem(3, VIEW_ROWS, 5).equations
    assert view != LinSystem(3, VIEW_ROWS[:2]).equations
    built = []
    monkeypatch.setattr(Equation, "__post_init__", lambda self: built.append(self))
    assert len(view) == 3 and view and not LinSystem(3).equations
    assert built == []


BAD_COLUMNS = {
    "negative index": (
        ((-1, 2),), b"\x00", (1,), ValueError, "negative variable index in (-1, 2)"
    ),
    "not ascending": (
        ((2, 1),), b"\x00", (1,), ValueError, "lhs must be strictly ascending, got (2, 1)"
    ),
    "rhs 2": (((0,),), b"\x02", (1,), ValueError, "rhs must be 0 or 1, got 2"),
    "weight 0": (((0,),), b"\x00", (0,), ValueError, "weight must be >= 1, got 0"),
    "index >= n": (
        ((0, 3),), b"\x00", (1,), ValueError, "variable 3 out of range for n=3"
    ),
    "total weight": (
        ((0,), (1,)),
        b"\x00\x01",
        (MAX_TOTAL_WEIGHT, 1),
        OverflowError,
        "total system weight exceeds the supported bound",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_COLUMNS))
def test_bad_columns_give_the_equation_messages(case):
    lhs, rhs, weights, error, message = BAD_COLUMNS[case]
    with pytest.raises(error) as by_columns:
        LinSystem.from_columns(3, lhs, rhs, weights)
    with pytest.raises(error) as by_rows:
        LinSystem(3, [Equation(*row) for row in zip(lhs, rhs, weights)])
    assert str(by_columns.value) == str(by_rows.value) == message


@pytest.mark.parametrize("n, lhs, rhs, weights, forced, message", [
    (-1, (), b"", (), 0, "variable count must be >= 0, got -1"),
    (1, (), b"", (), -1, "forced_falsified must be >= 0"),
    (1, ((0,),), b"", (), 0, "column lengths differ: 1, 0, 0"),
], ids=["n -1", "forced -1", "lengths"])
def test_from_columns_checks_its_header(n, lhs, rhs, weights, forced, message):
    with pytest.raises(ValueError) as caught:
        LinSystem.from_columns(n, lhs, rhs, weights, forced)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def test_equations_view_compares_only_with_views_and_tuples():
    system = LinSystem.build(2, [((0, 1), 1, 2), ((1,), 0, 1)])
    assert (system.equations == 5) is False
    assert repr(system.equations) == repr(tuple(system.equations))


# --- randomized invariants -------------------------------------------------

_sizes = st.integers(min_value=0, max_value=2**31)


@st.composite
def small_systems(draw, max_weight=4, allow_constants=True):
    n = draw(st.integers(min_value=0, max_value=6))
    m = draw(st.integers(min_value=0, max_value=8))
    eqs = []
    for _ in range(m):
        min_arity = 0 if allow_constants and n >= 0 else 1
        arity = draw(st.integers(min_value=min_arity, max_value=min(3, n)))
        lhs = tuple(sorted(draw(
            st.sets(st.integers(0, n - 1), min_size=arity, max_size=arity)
        ))) if n else ()
        rhs = draw(st.integers(0, 1))
        weight = draw(st.integers(1, max_weight))
        eqs.append(Equation(lhs, rhs, weight))
    return LinSystem(n, tuple(eqs))


@given(small_systems())
@settings(max_examples=150, deadline=None)
def test_weight_conservation(system):
    norm = normalize(system)
    for trial in range(min(4, 2**system.n)):
        assignment = tuple((trial >> i) & 1 for i in range(system.n))
        sat, fals = evaluate(norm, assignment)
        assert sat + fals == norm.total_weight + norm.forced_falsified


@given(small_systems())
@settings(max_examples=150, deadline=None)
def test_normalize_idempotent(system):
    once = normalize(system)
    assert normalize(once) == once


@given(small_systems())
@settings(max_examples=100, deadline=None)
def test_min_falsified_invariant_under_normalize_and_expand(system):
    base = brute_force_min_falsified(system).falsified_weight
    assert brute_force_min_falsified(normalize(system)).falsified_weight == base
    assert brute_force_min_falsified(expand_unit_weights(system)).falsified_weight == base


def test_occurrence_counts():
    system = LinSystem.build(3, [((0, 1), 0, 1), ((0, 2), 1, 2), ((0,), 1, 1)])
    assert occurrence_counts(system) == [3, 1, 1]


def test_library_has_no_assert_statements():
    # invariant checks must still run under python -O, which strips asserts
    package = Path(maxlin2.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_unread_private_names():
    # a module-level _name or a _method that no module of the package reads
    # is dead code
    package = Path(maxlin2.__file__).parent
    defined = []
    read = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                names = [node.name]
                defined += [(path.name, item.lineno, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path.name, node.lineno, name) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = [
        f"{module}:{lineno} {name}"
        for module, lineno, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert found == []


def test_library_has_no_unused_imports():
    # __init__.py imports to re-export, so it is the one module exempt
    package = Path(maxlin2.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []

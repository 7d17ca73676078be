"""File grammars, round-trips, and the command-line surface."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlin2 import (
    Equation,
    FormatError,
    LinSystem,
    brute_force_min_falsified,
    emit_assignment,
    emit_lin2,
    normalize,
    parse_assignment,
    parse_graph,
    parse_lin2,
    parse_oddset,
    profile,
)
from maxlin2.cli import EXIT_FORMAT, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from maxlin2.core import MAX_TOTAL_WEIGHT
from helpers import random_system


def test_parse_lin2_example():
    system = parse_lin2("p lin2 2 1\n2 1 2 1 2\n")
    assert system.n == 2
    assert [(e.lhs, e.rhs, e.weight) for e in system.equations] == [((0, 1), 1, 2)]


def test_parse_lin2_index_out_of_range():
    with pytest.raises(FormatError):
        parse_lin2("p lin2 1 1\n1 0 1 2\n")


def test_parse_lin2_empty_system():
    system = parse_lin2("p lin2 0 0\n")
    assert system.n == 0 and system.equations == ()


def test_parse_lin2_rejects_duplicate_index():
    with pytest.raises(FormatError):
        parse_lin2("p lin2 2 1\n1 0 2 1 1\n")


def test_parse_lin2_rejects_count_mismatch():
    with pytest.raises(FormatError):
        parse_lin2("p lin2 2 2\n1 0 1 1\n")


def test_parse_lin2_rejects_descending_indices():
    with pytest.raises(FormatError):
        parse_lin2("p lin2 2 1\n1 0 2 2 1\n")


def test_parse_lin2_skips_comments():
    system = parse_lin2("c a comment\np lin2 1 1\nc another\n1 1 1 1\n")
    assert len(system.equations) == 1


def test_lin2_round_trip():
    rng = random.Random(0xF11E)
    for index in range(60):
        system = normalize(random_system(rng, max_vars=6, max_eqs=8, max_weight=4))
        system = LinSystem(system.n, system.equations, index % 3)
        assert parse_lin2(emit_lin2(system)) == system


@pytest.mark.parametrize(
    "ledger",
    ["c forced-falsified -1\n", "c forced-falsified 1\nc forced-falsified 1\n"],
)
def test_parse_lin2_rejects_bad_forced_ledger(ledger):
    with pytest.raises(FormatError):
        parse_lin2(ledger + "p lin2 1 0\n")


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("c a comment\np lin2 2 1\n1 0 2 1 x\n", 3, "expected an integer, got 'x'"),
        ("p lin2 5 1\n1 0 2 6 7\n", 2, "index 6 out of range 1..5"),
        ("p lin2 5 1\n1 0 2 0 3\n", 2, "index 0 out of range 1..5"),
    ],
)
def test_parse_lin2_record_error_messages(text, lineno, message):
    with pytest.raises(FormatError) as caught:
        parse_lin2(text)
    assert caught.value.lineno == lineno
    assert str(caught.value) == f"line {lineno}: {message}"


@pytest.mark.parametrize(
    "system, comments, text",
    [
        (LinSystem(0), (), "p lin2 0 0\n"),
        (LinSystem(0, (Equation((), 0, 1),)), (), "p lin2 0 1\n1 0 0\n"),
        (
            LinSystem(3, (Equation((), 1, 2), Equation((0, 2), 0, 5)), 4),
            ("a", "b"),
            "c a\nc b\nc forced-falsified 4\np lin2 3 2\n2 1 0\n5 0 2 1 3\n",
        ),
    ],
)
def test_emit_lin2_exact_text(system, comments, text):
    assert emit_lin2(system, comments=comments) == text


def _reference_emit_lin2(system: LinSystem, comments=()) -> str:
    """emit_lin2 as it was before record templates: one join per row."""
    lines = [f"c {comment}" for comment in comments]
    if system.forced_falsified:
        lines.append(f"c forced-falsified {system.forced_falsified}")
    lines.append(f"p lin2 {system.n} {len(system.lhs)}")
    for lhs, rhs, weight in zip(system.lhs, system.rhs, system.weights):
        fields = [weight, rhs, len(lhs)] + [v + 1 for v in lhs]
        lines.append(" ".join(map(str, fields)))
    return "\n".join(lines) + "\n"


@st.composite
def emit_cases(draw):
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 6))
    heaviest = MAX_TOTAL_WEIGHT // max(m, 1)
    rows = []
    for _ in range(m):
        arity = draw(st.integers(0, min(5, n)))
        members = st.sets(st.integers(0, max(n - 1, 0)), min_size=arity, max_size=arity)
        lhs = tuple(sorted(draw(members)))
        weight = draw(st.one_of(st.integers(1, 3), st.integers(1, heaviest)))
        rows.append((lhs, draw(st.integers(0, 1)), weight))
    ledger = draw(st.one_of(st.just(0), st.integers(0, 2**70)))
    comments = draw(st.lists(st.text(max_size=8) | st.just("100% %s"), max_size=3))
    return LinSystem.build(n, rows, ledger), comments


@given(emit_cases())
@settings(max_examples=200, deadline=None)
def test_emit_lin2_matches_the_per_row_reference(case):
    system, comments = case
    assert emit_lin2(system, comments=comments) == _reference_emit_lin2(system, comments)


def test_lin2_round_trip_at_the_weight_bound():
    system = LinSystem(2, (Equation((0, 1), 1, MAX_TOTAL_WEIGHT),))
    text = emit_lin2(system)
    assert text == f"p lin2 2 1\n{MAX_TOTAL_WEIGHT} 1 2 1 2\n"
    assert parse_lin2(text) == system
    with pytest.raises(OverflowError):
        parse_lin2(f"p lin2 2 1\n{MAX_TOTAL_WEIGHT + 1} 1 2 1 2\n")


def test_parse_oddset_example():
    inst = parse_oddset("p ods 2 1 1\n2 1 2\n")
    assert inst.num_elements == 2
    assert inst.sets == ((0, 1),)
    assert inst.budget == 1


def test_parse_oddset_rejects_duplicates():
    with pytest.raises(FormatError):
        parse_oddset("p ods 2 2 0\n2 1 2\n2 2 1\n")


def test_parse_oddset_rejects_empty_set():
    with pytest.raises(FormatError):
        parse_oddset("p ods 2 1 0\n0\n")


def test_parse_oddset_vacuous():
    inst = parse_oddset("p ods 3 0 0\n")
    assert inst.sets == ()


def test_parse_graph():
    graph = parse_graph("p graph 3 3\n1 2\n2 3\n3 1\n")
    assert graph.num_vertices == 3 and len(graph.edges) == 3


def test_parse_graph_rejects_self_loop():
    with pytest.raises(FormatError):
        parse_graph("p graph 2 1\n1 1\n")


def test_parse_assignment_round_trip():
    assert parse_assignment(emit_assignment((1, 0, 1)), 3) == (1, 0, 1)
    with pytest.raises(FormatError):
        parse_assignment("1 0\n", 3)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CONTRADICTION = "p lin2 1 2\n1 0 1 1\n1 1 1 1\n"


def test_cli_solve_auto_occ2(tmp_path, capsys):
    path = _write(tmp_path, "a.lin2", CONTRADICTION)
    assert main(["solve", path]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "s OPTIMUM 1"
    assert out[1].startswith("v ")


def test_cli_solve_modes_agree(tmp_path, capsys):
    rng = random.Random(0xC11)
    for index in range(15):
        system = random_system(
            rng, max_vars=6, max_eqs=8, max_weight=3, max_occurrence=2
        )
        path = _write(tmp_path, f"sys{index}.lin2", emit_lin2(system))
        assert main(["solve", path, "--mode", "occ2"]) == EXIT_OK
        occ2_line = capsys.readouterr().out.splitlines()[0]
        assert main(["solve", path, "--mode", "exact"]) == EXIT_OK
        exact_line = capsys.readouterr().out.splitlines()[0]
        assert occ2_line == exact_line


def test_cli_solve_two_var_decision(tmp_path, capsys):
    path = _write(tmp_path, "a.lin2", CONTRADICTION)
    assert main(["solve", path, "--mode", "two-var", "-k", "0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "s NO"
    assert main(["solve", path, "--mode", "two-var", "-k", "1"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "s YES 1"


def test_cli_solve_two_var_huge_k(tmp_path, capsys):
    path = _write(tmp_path, "a.lin2", "p lin2 2 2\n1 0 2 1 2\n1 1 2 1 2\n")
    assert main(["solve", path, "--mode", "two-var", "-k", "100000000"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "s YES 1"


def test_cli_solve_two_var_needs_k(tmp_path, capsys):
    path = _write(tmp_path, "a.lin2", CONTRADICTION)
    assert main(["solve", path, "--mode", "two-var"]) == EXIT_USAGE


def test_cli_approx_guarantee(tmp_path, capsys):
    rng = random.Random(0xA99)
    for index in range(10):
        system = random_system(rng, max_vars=7, max_eqs=9, max_weight=4)
        path = _write(tmp_path, f"ap{index}.lin2", emit_lin2(system))
        assert main(["solve", path, "--mode", "approx"]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        satisfied = int(line.split()[-1])
        assert 2 * satisfied >= system.total_weight


def test_cli_stats(tmp_path, capsys):
    path = _write(tmp_path, "a.lin2", CONTRADICTION)
    assert main(["stats", path]) == EXIT_OK
    line = capsys.readouterr().out.strip()
    assert line.startswith("s STATS ")
    assert "n=1 m=2 W=2 r=1 s=2" in line


def test_cli_verify_roundtrip(tmp_path, capsys):
    path = _write(tmp_path, "a.lin2", CONTRADICTION)
    good = _write(tmp_path, "good.txt", "0\n")
    assert main(["verify", path, good, "--falsified", "1"]) == EXIT_OK
    assert "s VERIFIED" in capsys.readouterr().out
    assert main(["verify", path, good, "--falsified", "0"]) == EXIT_MISMATCH
    assert "s MISMATCH" in capsys.readouterr().out


def test_cli_verify_oracle_witness(tmp_path, capsys):
    rng = random.Random(0x7E57)
    system = random_system(rng, max_vars=6, max_eqs=8, max_weight=3)
    result = brute_force_min_falsified(system)
    path = _write(tmp_path, "sys.lin2", emit_lin2(system))
    witness = _write(tmp_path, "w.txt", emit_assignment(result.assignment))
    code = main(
        ["verify", path, witness, "--falsified", str(result.falsified_weight)]
    )
    assert code == EXIT_OK


def test_cli_malformed_input(tmp_path, capsys):
    path = _write(tmp_path, "bad.lin2", "p lin2 1 1\n1 5 1 1\n")
    assert main(["solve", path]) == EXIT_FORMAT


def test_cli_usage_error():
    assert main(["solve"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


def test_parse_lin2_rejects_zero_weight():
    with pytest.raises(FormatError):
        parse_lin2("p lin2 1 1\n0 0 1 1\n")


def test_cli_auto_never_runs_oracle_above_limit(tmp_path, capsys):
    # occurrence 3 and arity 3 rule out the polynomial solvers; without -k
    # and over the oracle limit, auto must refuse rather than enumerate
    rows = "".join(f"1 0 3 {v} {v + 1} {v + 2}\n" for v in (1, 2, 3))
    big = _write(tmp_path, "big.lin2", f"p lin2 30 3\n{rows}")
    assert main(["solve", big, "--oracle-limit", "20"]) == EXIT_USAGE
    small = _write(tmp_path, "small.lin2", f"p lin2 8 3\n{rows}")
    assert main(["solve", small, "--oracle-limit", "20"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "s OPTIMUM 0"


def test_cli_from_oddset(tmp_path, capsys):
    ods = _write(tmp_path, "a.ods", "p ods 2 1 1\n2 1 2\n")
    out_path = tmp_path / "out.lin2"
    assert main(["from-oddset", ods, "-o", str(out_path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "s K 1"
    emitted = parse_lin2(out_path.read_text())
    assert emitted.total_weight == 6
    assert len(emitted.equations) == 4


def test_cli_reduce_eq3eq3_then_stats(tmp_path, capsys):
    source = _write(
        tmp_path,
        "src.lin2",
        "p lin2 4 4\n1 0 3 1 2 3\n1 1 3 1 2 4\n1 0 3 1 3 4\n1 1 3 2 3 4\n",
    )
    out_path = tmp_path / "red.lin2"
    assert main(["reduce", source, "--target", "eq3eq3", "-o", str(out_path)]) == EXIT_OK
    capsys.readouterr()
    reduced = parse_lin2(out_path.read_text())
    prof = profile(reduced)
    assert (prof.max_arity, prof.max_occurrence) == (3, 3)
    assert prof.unit_weights and prof.distinct_lhs
    assert (tmp_path / "red.lin2.trace").exists()
    assert main(["stats", str(out_path)]) == EXIT_OK
    assert "r=3 s=3" in capsys.readouterr().out


DEG3_TRACE = """\
degree5plus variable=0 m:7->16 n:4->9
degree4 variable=0 m:16->20 n:9->12
degree4 variable=1 m:20->24 n:12->15
degree4 variable=4 m:24->28 n:15->18
degree4 variable=5 m:28->32 n:18->21
degree4 variable=6 m:32->36 n:21->24
degree4 variable=7 m:36->40 n:24->27
degree4 variable=8 m:40->44 n:27->30
"""

# The exact .trace text of each target on one input with a weight-2 row, an
# opposing unary pair and a variable of degree 5 (after unit expansion).
REDUCE_TRACES = {
    "deg3": DEG3_TRACE,
    "arity3": DEG3_TRACE + "arity-expand m:44->88 n:30->118\n",
    "eq3eq3": """\
normalize m:6->6 n:4->4
opposing-pairs m:6->4 n:4->4
unit-expand m:4->5 n:4->4
degree4 variable=0 m:5->9 n:4->7
degree4 variable=1 m:9->13 n:7->10
arity-expand m:13->24 n:10->32
always-satisfied-removal m:24->23 n:32->32
degree2-triplets m:23->79 n:32->80
deduplicate m:79->79 n:80->80
compact m:79->79 n:80->79
""",
}


@pytest.mark.parametrize("target", sorted(REDUCE_TRACES))
def test_cli_reduce_trace_file_text(tmp_path, capsys, target):
    source = _write(
        tmp_path,
        "src.lin2",
        "p lin2 4 6\n1 0 3 1 2 3\n2 1 2 1 2\n1 0 2 1 3\n"
        "1 1 1 1\n1 0 1 1\n1 1 3 2 3 4\n",
    )
    out_path = tmp_path / "red.lin2"
    assert main(["reduce", source, "--target", target, "-o", str(out_path)]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "red.lin2.trace").read_text() == REDUCE_TRACES[target]


def test_cli_reduce_then_solve_keeps_forced_ledger(tmp_path, capsys):
    source = _write(
        tmp_path, "src.lin2", "p lin2 2 4\n1 0 1 1\n1 1 1 1\n1 0 1 2\n1 1 1 2\n"
    )
    out_path = tmp_path / "red.lin2"
    assert main(["reduce", source, "--target", "eq3eq3", "-o", str(out_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", str(out_path), "--mode", "exact"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "s OPTIMUM 2"


def test_cli_reduce_refuses_huge_weight_promptly(tmp_path, capsys):
    source = _write(tmp_path, "big.lin2", "p lin2 1 1\n1000000000 1 1 1\n")
    started = time.monotonic()
    for target in ("eq3eq3", "deg3", "arity3"):
        out_path = tmp_path / f"{target}.lin2"
        assert main(["reduce", source, "--target", target, "-o", str(out_path)]) == EXIT_USAGE
        assert not out_path.exists()
    assert time.monotonic() - started < 5
    assert "unit expansion" in capsys.readouterr().err


def test_cli_reduce_refuses_oversize_degree_split_promptly(tmp_path, capsys):
    # One variable in 300 equations would split into about 10^9 equations.
    rows = "".join(f"1 0 2 1 {j}\n" for j in range(2, 302))
    source = _write(tmp_path, "star.lin2", f"p lin2 301 300\n{rows}")
    started = time.monotonic()
    for target in ("eq3eq3", "deg3", "arity3"):
        out_path = tmp_path / f"{target}.lin2"
        assert main(["reduce", source, "--target", target, "-o", str(out_path)]) == EXIT_USAGE
        assert not out_path.exists()
    assert time.monotonic() - started < 1
    assert "degree splitting" in capsys.readouterr().err


def test_cli_reduce_refuses_arity_above_3_for_arity_targets(tmp_path, capsys):
    text = "p lin2 4 1\n1 0 4 1 2 3 4\n"
    source = _write(tmp_path, "wide.lin2", text)
    for target in ("arity3", "eq3eq3"):
        out_path = tmp_path / f"{target}.lin2"
        assert main(["reduce", source, "--target", target, "-o", str(out_path)]) == EXIT_USAGE
        assert not out_path.exists()
        assert "arity at most 3" in capsys.readouterr().err
    out_path = tmp_path / "deg3.lin2"
    assert main(["reduce", source, "--target", "deg3", "-o", str(out_path)]) == EXIT_OK
    assert capsys.readouterr().out == "s REDUCED n=4 m=1\n"
    assert parse_lin2(out_path.read_text()) == parse_lin2(text)


def test_cli_reduce_emits_reparsable_targets(tmp_path, capsys):
    rng = random.Random(0x909)
    for index, target in enumerate(("deg3", "arity3", "eq3eq3")):
        system = random_system(rng, max_vars=4, max_eqs=5, max_weight=2, max_arity=3)
        src = _write(tmp_path, f"s{index}.lin2", emit_lin2(system))
        out_path = tmp_path / f"r{index}.lin2"
        assert main(["reduce", src, "--target", target, "-o", str(out_path)]) == EXIT_OK
        reduced = parse_lin2(out_path.read_text())
        expected = f"s REDUCED n={reduced.n} m={len(reduced.equations)}\n"
        assert capsys.readouterr().out == expected
        prof = profile(reduced)
        if target == "deg3":
            assert prof.max_occurrence <= 3
        elif target == "arity3":
            assert all(e.arity == 3 for e in reduced.equations)
        else:
            assert not reduced.equations or (
                prof.max_arity == 3 and prof.max_occurrence == 3
            )


def test_cli_bipartize(tmp_path, capsys):
    triangle = _write(tmp_path, "t.graph", "p graph 3 3\n1 2\n2 3\n3 1\n")
    assert main(["bipartize", triangle, "-k", "0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "s NONE"
    assert main(["bipartize", triangle, "-k", "1"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "s BIPARTIZATION 1"
    assert out[1].startswith("d ")

"""File grammars, round-trips, and the command-line surface."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxlin2
from maxlin2 import (
    Equation,
    FormatError,
    LinSystem,
    brute_force_min_falsified,
    emit_assignment,
    emit_lin2,
    normalize,
    oddset_to_lin2,
    parse_assignment,
    parse_graph,
    parse_lin2,
    parse_oddset,
    profile,
)
from maxlin2.cli import EXIT_FORMAT, EXIT_MISMATCH, EXIT_OK, EXIT_PIPE, EXIT_USAGE, main
from maxlin2.core import MAX_TOTAL_WEIGHT, MAX_UNIT_EQUATIONS
from maxlin2.formats import _CHUNK, _plain_lin2
from maxlin2.gadgets import reduce_to_target
from helpers import random_system, traced_peak


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


def _long_lin2(fault: str):
    """A plain text of 20,000 records, longer than three chunks, whose first
    record past two and a half chunks is fault; returns (text, its line)."""
    records = [f"{1 + j % 3} {j % 2} 2 {1 + j % 99} {2 + j % 99}" for j in range(20_000)]
    offset = j = 0
    while offset <= 2.5 * _CHUNK:
        offset += len(records[j]) + 1
        j += 1
    records[j] = fault
    text = f"p lin2 100 {len(records)}\n" + "".join(r + "\n" for r in records)
    assert len(text) > 3 * _CHUNK
    return text, j + 2


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("c a comment\np lin2 2 1\n1 0 2 1 x\n", 3, "expected an integer, got 'x'"),
        ("p lin2 5 1\n1 0 2 6 7\n", 2, "index 6 out of range 1..5"),
        ("p lin2 5 1\n1 0 2 0 3\n", 2, "index 0 out of range 1..5"),
        # One case per record fault, each after a good record, a comment and a blank line.
        ("p lin2 5 2\n1 0 1 1\nc x\n\n0 1 1 2\n", 5, "weight must be >= 1, got 0"),
        ("p lin2 5 2\n1 0 1 1\nc x\n\n1 2 1 2\n", 5, "rhs must be 0 or 1, got 2"),
        ("p lin2 5 2\n1 0 1 1\nc x\n\n1 300 1 2\n", 5, "rhs must be 0 or 1, got 300"),
        ("p lin2 5 2\n1 0 1 1\nc x\n\n1 0 3 1 2\n", 5, "expected 3 indices, got 2"),
        ("p lin2 5 2\n1 0 1 1\nc x\n\n1 0\n", 5, "record needs weight, rhs and arity"),
        ("p lin2 5 2\n1 0 1 1\nc x\n\n1 0 2 3 3\n", 5, "duplicate index 3"),
        ("p lin2 5 2\n1 0 1 1\nc x\n\n1 0 3 1 4 2\n", 5, "indices must be strictly ascending"),
        ("p lin2 5 2\n1 0 1 1\nc x\n\n1 0 1 0\n", 5, "index 0 out of range 1..5"),
        ("p lin2 5 2\n1 0 1 1\nc x\n\n1 0 2 2 6\n", 5, "index 6 out of range 1..5"),
        # The same faults in a plain body, which is decoded in bulk.
        ("p lin2 5 2\n1 0 1 1\n0 1 1 2\n", 3, "weight must be >= 1, got 0"),
        ("p lin2 5 2\n1 0 1 1\n1 2 1 2\n", 3, "rhs must be 0 or 1, got 2"),
        ("p lin2 5 2\n1 0 1 1\n1 300 1 2\n", 3, "rhs must be 0 or 1, got 300"),
        ("p lin2 5 2\n1 0 1 1\n1 0 3 1 2\n", 3, "expected 3 indices, got 2"),
        ("p lin2 5 2\n1 0 1 1\n1 0\n", 3, "record needs weight, rhs and arity"),
        ("p lin2 5 2\n1 0 1 1\n1 0 2 3 3\n", 3, "duplicate index 3"),
        ("p lin2 5 2\n1 0 1 1\n1 0 3 1 4 2\n", 3, "indices must be strictly ascending"),
        ("p lin2 5 2\n1 0 1 1\n1 0 1 0\n", 3, "index 0 out of range 1..5"),
        ("p lin2 5 2\n1 0 1 1\n1 0 2 2 6\n", 3, "index 6 out of range 1..5"),
        ("p lin2 5 2\n1 0 1 1\n1 1 -1 2\n", 3, "expected -1 indices, got 1"),
        ("p lin2 5 1\n1 0 1 1\n1 1 1 2\n", 0, "header declares 1 records, found 2"),
        ("p lin2 5 3\n1 0 1 1\n1 1 1 2\n", 0, "header declares 3 records, found 2"),
        # Tokens that a JSON number and int() do not read alike.
        ("p lin2 12 2\n1 0 1 1\n-0 1 2 -0 12\n", 3, "weight must be >= 1, got 0"),
        ("p lin2 12 2\n1 0 1 1\n1.0 1 2 1.0 12\n", 3, "expected an integer, got '1.0'"),
        ("p lin2 12 2\n1 0 1 1\n1e0 1 2 1e0 12\n", 3, "expected an integer, got '1e0'"),
        pytest.param(*_long_lin2("1 0 2 9 9"), "duplicate index 9", id="third-chunk-fault"),
    ],
)
def test_parse_lin2_record_error_messages(text, lineno, message):
    with pytest.raises(FormatError) as caught:
        parse_lin2(text)
    assert caught.value.lineno == lineno
    assert str(caught.value) == f"line {lineno}: {message}"


@pytest.mark.parametrize(
    "text, plain",
    [
        # Tokens that int() reads and a JSON number does not, or reads otherwise.
        ("p lin2 12 1\n03 1 2 03 12\n", "p lin2 12 1\n3 1 2 3 12\n"),
        ("p lin2 12 1\n+2 1 2 +2 12\n", "p lin2 12 1\n2 1 2 2 12\n"),
        ("p lin2 12 1\n1_0 1 2 1_0 12\n", "p lin2 12 1\n10 1 2 10 12\n"),
        ("p lin2 12 1\n\u0663 1 2 \u0663 12\n", "p lin2 12 1\n3 1 2 3 12\n"),
        ("p lin2 12 1\n1 -0 2 3 12\n", "p lin2 12 1\n1 0 2 3 12\n"),
        # Spacing that a plain body does not have, and a missing last newline.
        ("p lin2 5 2\n1 0 1 1\n\n1 1 1 2\n", "p lin2 5 2\n1 0 1 1\n1 1 1 2\n"),
        ("p lin2 5 2\n1 0 1 1\n1  1 1 2 \n", "p lin2 5 2\n1 0 1 1\n1 1 1 2\n"),
        ("p lin2 5 2\n1 0 1 1\n1 1 1 2", "p lin2 5 2\n1 0 1 1\n1 1 1 2\n"),
    ],
)
def test_parse_lin2_reads_every_token_that_int_reads(text, plain):
    assert parse_lin2(text) == parse_lin2(plain)


@pytest.mark.parametrize(
    "parse, text, lineno, message",
    [
        # One case per record fault, each after a good record, a comment and a blank line.
        (parse_oddset, "p ods 3 2 0\n1 1\nc x\n\n2 3\n", 5, "expected 2 elements, got 1"),
        (parse_oddset, "p ods 3 2 0\n1 1\nc x\n\n2 3 3\n", 5, "repeated element in set"),
        (parse_oddset, "p ods 3 2 0\n1 1\nc x\n\n2 1 4\n", 5, "element 4 out of range 1..3"),
        (parse_oddset, "p ods 3 2 0\n1 1\nc x\n\n2 0 2\n", 5, "element 0 out of range 1..3"),
        (parse_graph, "p graph 3 2\n1 2\nc x\n\n3\n", 5, "edge record must be '<u> <v>'"),
        (parse_graph, "p graph 3 2\n1 2\nc x\n\n1 2 3\n", 5, "edge record must be '<u> <v>'"),
        (parse_graph, "p graph 3 2\n1 2\nc x\n\n1 4\n", 5, "vertex 4 out of range 1..3"),
        (parse_graph, "p graph 3 2\n1 2\nc x\n\n0 2\n", 5, "vertex 0 out of range 1..3"),
    ],
)
def test_parse_ods_and_graph_record_error_messages(parse, text, lineno, message):
    with pytest.raises(FormatError) as caught:
        parse(text)
    assert caught.value.lineno == lineno
    assert str(caught.value) == f"line {lineno}: {message}"


# (parser, header usage, a header with n = 2 and m = 1, one valid record, record noun)
READER_FORMATS = (
    (parse_lin2, "p lin2 <n> <m>", "p lin2 2 1", "1 0 1 1", "records"),
    (parse_oddset, "p ods <n> <m> <k>", "p ods 2 1 0", "1 1", "sets"),
    (parse_graph, "p graph <n> <m>", "p graph 2 1", "1 2", "edges"),
)


def _reader_errors():
    """(parser, text, lineno, message) rows, the same cases for each format."""
    for parse, usage, header, record, noun in READER_FORMATS:
        kind = usage.split()[1]
        for case, text, lineno, message in (
            ("duplicate header", f"{header}\n{header}\n{record}\n", 2, "duplicate header"),
            ("extra count", f"{header} 9\n{record}\n", 1, f"header must be '{usage}'"),
            ("wrong kind", f"p other{header[header.index(' ', 2):]}\n{record}\n", 1,
             f"header must be '{usage}'"),
            ("negative count", f"{header.replace(' 2 ', ' -2 ')}\n{record}\n", 1,
             "header counts must be nonnegative"),
            ("bad header token", f"{header.replace(' 2 ', ' x ')}\n{record}\n", 1,
             "expected an integer, got 'x'"),
            ("record before header", f"{record}\n{header}\n", 1, "record before header"),
            ("missing header", "c no header\n", 0, "missing header"),
            ("record count", f"{header}\n", 0, f"header declares 1 {noun}, found 0"),
            ("bad record token", f"c note\n{header}\n{record} y\n", 3,
             "expected an integer, got 'y'"),
        ):
            yield pytest.param(parse, text, lineno, message, id=f"{kind}-{case}")


@pytest.mark.parametrize("parse, text, lineno, message", _reader_errors())
def test_every_format_reads_its_header_and_tokens_alike(parse, text, lineno, message):
    with pytest.raises(FormatError) as caught:
        parse(text)
    assert caught.value.lineno == lineno
    assert str(caught.value) == f"line {lineno}: {message}"


def _untidy(text: str) -> str:
    """The same records with CRLF endings, tabs, an indented `c` line, blank
    lines and a `c` line between records."""
    header, first, *rest = text.splitlines()
    lines = ["  \tc indented comment", "", header.replace(" ", "\t"), "   ",
             first.replace(" ", " \t "), "c between records", "", *rest]
    return "\r\n".join(lines) + "\r\n"


def _random_lin2_texts():
    """emit_lin2 texts of random systems, with and without a forced ledger,
    and one longer than three chunks, so that a chunk boundary falls inside it."""
    rng = random.Random(0x71D7)
    for index in range(8):
        system = random_system(rng, max_vars=9, max_eqs=8, max_weight=5)
        if system.lhs:
            system = LinSystem.from_columns(system.n, system.lhs, system.rhs, system.weights, index % 2)
            yield pytest.param(parse_lin2, emit_lin2(system), id=f"lin2-random-{index}")
    text = ""
    while len(text) <= 3 * _CHUNK:
        system = random_system(rng, min_vars=40, max_vars=40, max_eqs=6000, max_weight=9)
        text = emit_lin2(LinSystem.from_columns(40, system.lhs, system.rhs, system.weights, 7))
    yield pytest.param(parse_lin2, text, id="lin2-random-long")


@pytest.mark.parametrize(
    "parse, text",
    [
        pytest.param(parse_lin2, "c forced-falsified 2\np lin2 3 2\n1 0 2 1 2\n2 1 1 3\n",
                     id="lin2"),
        pytest.param(parse_oddset, "p ods 3 2 1\n2 1 2\n1 3\n", id="ods"),
        pytest.param(parse_graph, "p graph 3 2\n1 2\n2 3\n", id="graph"),
        *_random_lin2_texts(),
    ],
)
def test_every_format_reads_untidy_text_as_the_plain_text(parse, text):
    assert parse(_untidy(text)) == parse(text)
    if parse is parse_lin2:  # the plain text is decoded in bulk, the untidy one line by line
        assert _plain_lin2(text) is not None and _plain_lin2(_untidy(text)) is None


def test_parse_lin2_decodes_a_plain_text_one_chunk_at_a_time():
    # The line loop splits the whole text into lines first; one json.loads of
    # the whole body would hold every record's list at once, and more.
    rng = random.Random(0xC4C)
    rows = [(rng.sample(range(2000), rng.randint(1, 3)), rng.randint(0, 1)) for _ in range(20_000)]
    text = emit_lin2(LinSystem.build(2000, rows))
    untidy = _untidy(text)
    assert parse_lin2(text) == parse_lin2(untidy)
    assert traced_peak(lambda: parse_lin2(text)) <= traced_peak(lambda: parse_lin2(untidy))


def test_cli_exits_65_on_a_row_fault_found_after_the_records_are_read(tmp_path, capsys):
    # The weight is checked with the rows, once every record is read; the
    # fault must still be a FormatError, not a ValueError (which exits 64).
    path = _write(tmp_path, "w0.lin2", "p lin2 2 2\n1 0 1 1\n0 1 1 2\n")
    assert main(["solve", path]) == EXIT_FORMAT
    assert capsys.readouterr().err == "error: line 3: weight must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        # A row fault on line 2 wins over a bad token on line 5.
        ("p lin2 3 4\n0 0 1 1\n1 0 1 2\nc note\n1 0 1 x\n", 2, "weight must be >= 1, got 0"),
        # A bad token on line 2 wins over a row fault on line 3.
        ("p lin2 3 2\n1 y 1 1\n1 0 2 2 2\n", 2, "expected an integer, got 'y'"),
        # A row fault wins over the record count (3 declared, 2 found) and the
        # forced ledger, which are checked after every record; alone, the
        # ledger fault is reported.
        ("c forced-falsified -1\np lin2 3 3\n1 0 1 1\n1 0 1 4\n", 4, "index 4 out of range 1..3"),
        ("c forced-falsified -1\np lin2 3 1\n1 0 1 1\n", 1,
         "forced-falsified needs one nonnegative count"),
    ],
)
def test_parse_lin2_reports_the_first_fault_in_line_order(text, lineno, message):
    with pytest.raises(FormatError) as caught:
        parse_lin2(text)
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


# Systems of one weight and one arity take the rhs-keyed templates; the
# others key each row by (weight, rhs, arity). Both must write the same bytes.
K4 = [((0, 1, 2), 0), ((0, 1, 3), 1), ((0, 2, 3), 0), ((1, 2, 3), 1)]
EMIT_CASES = {
    "unit arity 3": (LinSystem.build(4, K4), ()),
    "ods 5 0 0": (oddset_to_lin2(parse_oddset("p ods 5 0 0\n")).system, ()),
    "mixed weights": (LinSystem.build(3, [((0, 1), 1, 2), ((1, 2), 0, 1), ((0, 2), 1, 7)]), ()),
    "mixed arities": (LinSystem.build(4, [((0,), 1), ((0, 3), 0), ((1, 2, 3), 1), ((), 1)]), ()),
    "n above m, one shape": (LinSystem.build(40, [((2, 9, 39), 1), ((0, 9, 17), 0)]), ()),
    "n above m, mixed": (LinSystem.build(40, [((39,), 1, 3), ((2, 9), 0, 1)]), ()),
    "empty": (LinSystem(0), ()),
    "empty, n = 7": (LinSystem(7), ()),
    "forced ledger": (LinSystem.build(4, K4, 5), ()),
    "comments": (LinSystem.build(4, K4, 2), ("a note", "100% %s")),
}


@pytest.mark.parametrize("case", sorted(EMIT_CASES))
def test_emit_lin2_paths_match_the_per_row_reference(case):
    system, comments = EMIT_CASES[case]
    text = emit_lin2(system, comments=comments)
    assert text == _reference_emit_lin2(system, comments)
    assert parse_lin2(text) == system


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
    # the message names the file's 1-based vertex, like the range check
    with pytest.raises(FormatError, match=r"^line 2: self-loop at vertex 2 is not allowed$"):
        parse_graph("p graph 3 1\n2 2\n")


@pytest.mark.parametrize("assignment", [(), (0,), (1,), (1, 0, 1), (0, 1) * 50])
def test_emit_assignment_text(assignment):
    bits = " ".join(str(b) for b in assignment)
    assert emit_assignment(assignment) == bits + "\n"
    assert emit_assignment(assignment, "v") == ("v " + bits).rstrip() + "\n"


def test_cli_v_line_is_bare_for_an_empty_assignment(tmp_path, capsys):
    assert main(["solve", _write(tmp_path, "e.lin2", "p lin2 0 0\n")]) == EXIT_OK
    assert capsys.readouterr().out == "s OPTIMUM 0\nv\n"
    assert main(["solve", _write(tmp_path, "a.lin2", "p lin2 3 1\n1 1 2 1 3\n")]) == EXIT_OK
    assert re.fullmatch(r"s OPTIMUM 0\nv [01] [01] [01]\n", capsys.readouterr().out)


def test_parse_assignment_round_trip():
    assert parse_assignment(emit_assignment((1, 0, 1)), 3) == (1, 0, 1)
    assert parse_assignment("s OPTIMUM 1\n" + emit_assignment((1, 0, 1), "v"), 3) == (1, 0, 1)
    # With n = 0 there may be no line at all, as emit_assignment writes it.
    assert parse_assignment(emit_assignment(()), 0) == ()
    assert parse_assignment(emit_assignment((), "v"), 0) == ()
    with pytest.raises(FormatError):
        parse_assignment("1 0\n", 3)
    with pytest.raises(FormatError, match="found 0"):
        parse_assignment("\n", 1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("c note\n1 x 0\n", "line 2: expected an integer, got 'x'"),
        ("\nc note\n1 0\n", "line 3: expected 3 bits, got 2"),
        ("c a\nc b\n\n1 2 0\n", "line 4: assignment entries must be 0 or 1"),
    ],
)
def test_parse_assignment_reports_the_line_it_read(text, message):
    with pytest.raises(FormatError) as error:
        parse_assignment(text, 3)
    assert str(error.value) == message


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CONTRADICTION = "p lin2 1 2\n1 0 1 1\n1 1 1 1\n"
TARGETS = ("deg3", "arity3", "eq3eq3")  # every `maxlin2 reduce --target`


def test_cli_solve_into_a_closed_pipe_exits_141_quietly(tmp_path):
    # The assignment line of 200,000 variables outgrows any pipe buffer, so
    # the reader's close after the first line breaks the pipe mid-write.
    source = _write(tmp_path, "wide.lin2", "p lin2 200000 0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(maxlin2.__file__).parent.parent)}
    with subprocess.Popen(
        [sys.executable, "-m", "maxlin2.cli", "solve", source],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        status = child.wait(timeout=60)
    assert (first, status, err) == (b"s OPTIMUM 0\n", EXIT_PIPE, b"")


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


def test_emit_lin2_names_only_the_variables_the_rows_hold():
    # One row holds the last variable the header allows; naming every
    # variable up to it would build 10^7 strings for a two-line file.
    system = LinSystem.from_columns(MAX_UNIT_EQUATIONS, [(MAX_UNIT_EQUATIONS - 1,)], b"\1", [2])
    assert traced_peak(lambda: emit_lin2(system)) < 2**20
    assert emit_lin2(system) == f"p lin2 {MAX_UNIT_EQUATIONS} 1\n2 1 1 {MAX_UNIT_EQUATIONS}\n"


# An odd triangle (occurrence 2), and the same triangle with a unary row on
# variable 1, which only the oracle and the two-variable solver take.
TRIANGLE = "p lin2 3 3\n1 1 2 1 2\n1 0 2 2 3\n2 0 2 1 3\n"
TRIANGLE_PLUS = "p lin2 3 4\n1 1 2 1 2\n1 0 2 2 3\n2 0 2 1 3\n1 1 1 1\n"


@pytest.mark.parametrize(
    "text, options",
    [
        (TRIANGLE, []),
        (TRIANGLE_PLUS, ["--mode", "exact"]),
        (TRIANGLE_PLUS, ["--mode", "two-var", "-k", "2"]),
        ("p lin2 0 0\n", []),
    ],
    ids=["occ2", "exact", "two-var", "empty"],
)
def test_cli_verify_reads_what_solve_prints(tmp_path, capsys, text, options):
    system = _write(tmp_path, "a.lin2", text)
    assert main(["solve", system, *options]) == EXIT_OK
    printed = capsys.readouterr().out
    claimed = printed.split()[2]  # "s OPTIMUM <w>" or "s YES <w>"
    solution = _write(tmp_path, "a.sol", printed)
    assert main(["verify", system, solution, "--falsified", claimed]) == EXIT_OK
    assert capsys.readouterr().out.endswith(f" falsified {claimed}\n")


def test_cli_malformed_input(tmp_path, capsys):
    path = _write(tmp_path, "bad.lin2", "p lin2 1 1\n1 5 1 1\n")
    assert main(["solve", path]) == EXIT_FORMAT


def test_cli_verify_names_the_assignment_line(tmp_path, capsys):
    system = _write(tmp_path, "a.lin2", "p lin2 3 1\n1 0 1 1\n")
    assignment = _write(tmp_path, "a.sol", "c note\n1 x 0\n")
    assert main(["verify", system, assignment]) == EXIT_FORMAT
    assert capsys.readouterr().err == "error: line 2: expected an integer, got 'x'\n"


def test_cli_refuses_a_huge_header_n_before_allocating(tmp_path, capsys):
    # One row, but n one past the bound: refused before any per-variable
    # table of size n is built, so each command returns at once.
    source = _write(tmp_path, "wide.lin2", f"p lin2 {MAX_UNIT_EQUATIONS + 1} 1\n1 0 1 1\n")
    out_path = tmp_path / "out.lin2"
    started = time.monotonic()
    assert main(["solve", source]) == EXIT_USAGE
    assert main(["reduce", source, "--target", "eq3eq3", "-o", str(out_path)]) == EXIT_USAGE
    assert time.monotonic() - started < 1
    assert not out_path.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: line 1: n = {MAX_UNIT_EQUATIONS + 1} is over {MAX_UNIT_EQUATIONS}"] * 2
    # The other two formats share the header reader and its bound.
    for command, text in (
        (["from-oddset", "-o", str(out_path)], "p ods 100000000 0 0\n"),
        (["bipartize", "-k", "0"], "p graph 100000000 0\n"),
    ):
        source = _write(tmp_path, "wide.txt", text)
        started = time.monotonic()
        assert main([command[0], source, *command[1:]]) == EXIT_USAGE
        assert time.monotonic() - started < 1
        assert not out_path.exists()
        assert capsys.readouterr().err == (
            f"error: line 1: n = 100000000 is over {MAX_UNIT_EQUATIONS}\n"
        )


@pytest.mark.parametrize(
    "command, text",
    [
        (["solve"], f"p lin2 2 2\n{MAX_TOTAL_WEIGHT} 1 2 1 2\n1 0 1 1\n"),
        (["stats"], f"p lin2 2 2\n{MAX_TOTAL_WEIGHT} 1 2 1 2\n1 0 1 1\n"),
        (["from-oddset", "-o", "out.lin2"], "p ods 2 1 99999999999999999999\n1 1\n"),
    ],
    ids=["solve", "stats", "from-oddset"],
)
def test_cli_refuses_total_weight_above_the_bound(tmp_path, capsys, monkeypatch, command, text):
    monkeypatch.chdir(tmp_path)
    source = _write(tmp_path, "heavy.txt", text)
    assert main([command[0], source, *command[1:]]) == EXIT_USAGE
    assert not (tmp_path / "out.lin2").exists()
    assert capsys.readouterr().err == "error: total system weight exceeds the supported bound\n"


@pytest.mark.parametrize(
    "command, bad",
    [
        (["reduce", "--target", "eq3eq3", "-o", "missing/x.lin2"], "missing/x.lin2"),
        (["from-oddset", "-o", "missing/x"], "missing/x"),
    ],
    ids=["reduce-output", "from-oddset-output"],
)
def test_cli_names_the_path_it_cannot_write(tmp_path, capsys, monkeypatch, command, bad):
    monkeypatch.chdir(tmp_path)
    text = "p ods 2 1 1\n2 1 2\n" if command[0] == "from-oddset" else CONTRADICTION
    source = _write(tmp_path, "in.txt", text)
    assert main([command[0], source, *command[1:]]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")


@pytest.mark.parametrize(
    "data, lineno",
    [(b"\xff\xfe", 1), (b"c note\np lin2 1 0\nc \xff\n", 3)],
    ids=["first-line", "third-line"],
)
def test_cli_input_that_is_not_utf8_is_malformed(tmp_path, capsys, data, lineno):
    path = tmp_path / "bad.lin2"
    path.write_bytes(data)
    assert main(["stats", str(path)]) == EXIT_FORMAT
    assert capsys.readouterr().err == f"error: line {lineno}: {path} is not UTF-8 text\n"


def test_cli_usage_error():
    assert main(["solve"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


def test_cli_names_the_path_it_cannot_read(tmp_path, capsys):
    missing = tmp_path / "missing.lin2"
    assert main(["solve", str(missing)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_parse_lin2_rejects_zero_weight():
    with pytest.raises(FormatError):
        parse_lin2("p lin2 1 1\n0 0 1 1\n")


def test_cli_auto_on_arity_two_without_k(tmp_path, capsys):
    # the 6-row star: variable 1 is in 4 rows, so occ2 does not apply; with
    # no -k auto takes the oracle under its limit and refuses above it
    rows = "1 0 2 1 2\n1 0 2 1 3\n1 1 2 1 4\n1 0 2 1 5\n1 0 2 2 3\n1 0 2 4 5\n"
    small = _write(tmp_path, "small.lin2", f"p lin2 5 6\n{rows}")
    assert main(["solve", small]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "s OPTIMUM 1"
    big = _write(tmp_path, "big.lin2", f"p lin2 30 6\n{rows}")
    assert main(["solve", big]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: auto mode found no applicable solver; ")
    assert main(["solve", big, "-k", "1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "s YES 1"


def test_cli_auto_never_runs_oracle_above_limit(tmp_path, capsys):
    # occurrence 3 and arity 3 rule out the polynomial solvers; without -k
    # and over the oracle limit, auto must refuse rather than enumerate
    rows = "".join(f"1 0 3 {v} {v + 1} {v + 2}\n" for v in (1, 2, 3))
    big = _write(tmp_path, "big.lin2", f"p lin2 30 3\n{rows}")
    assert main(["solve", big, "--oracle-limit", "20"]) == EXIT_USAGE
    small = _write(tmp_path, "small.lin2", f"p lin2 8 3\n{rows}")
    assert main(["solve", small, "--oracle-limit", "20"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "s OPTIMUM 0"


def test_cli_auto_asks_occ2_before_two_var(tmp_path, capsys):
    # Occurrence 2 and arity 1: two-var at -k 0 would print NO, but auto
    # asks occ2 first, and occ2 prints the optimum.
    path = _write(tmp_path, "a.lin2", CONTRADICTION)
    assert main(["solve", path, "-k", "0"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "s OPTIMUM 1"


def test_cli_solve_never_profiles_the_instance(tmp_path, capsys, monkeypatch):
    # Each solver refuses what is outside its class or size itself, so no
    # mode of solve builds a profile; stats still does.
    def refuse(system):
        raise AssertionError("profile called")

    monkeypatch.setattr("maxlin2.cli.profile", refuse)
    occ2 = _write(tmp_path, "occ2.lin2", CONTRADICTION)
    plus = _write(tmp_path, "plus.lin2", TRIANGLE_PLUS)
    rows = "".join(f"1 0 3 {v} {v + 1} {v + 2}\n" for v in (1, 2, 3))
    wide = _write(tmp_path, "wide.lin2", f"p lin2 30 3\n{rows}")
    for args, code in (
        ([occ2], EXIT_OK),
        ([occ2, "-k", "0"], EXIT_OK),
        ([plus], EXIT_OK),
        ([plus, "-k", "2"], EXIT_OK),
        ([wide], EXIT_USAGE),
        ([wide, "-k", "2"], EXIT_USAGE),
        ([plus, "--mode", "exact"], EXIT_OK),
        ([plus, "--mode", "occ2"], EXIT_USAGE),
        ([plus, "--mode", "two-var", "-k", "2"], EXIT_OK),
        ([plus, "--mode", "approx"], EXIT_OK),
    ):
        assert main(["solve", *args]) == code, args
    with pytest.raises(AssertionError, match="profile called"):
        main(["stats", plus])


def test_cli_from_oddset(tmp_path, capsys):
    ods = _write(tmp_path, "a.ods", "p ods 2 1 1\n2 1 2\n")
    out_path = tmp_path / "out.lin2"
    assert main(["from-oddset", ods, "-o", str(out_path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "s K 1"
    emitted = parse_lin2(out_path.read_text())
    assert emitted.total_weight == 6
    assert len(emitted.equations) == 4


def _trace_lines(path) -> str:
    """The trace text that `reduce` wrote as `c trace` lines into its output."""
    lines = path.read_text().splitlines()
    return "".join(line[len("c trace ") :] + "\n" for line in lines if line.startswith("c trace "))


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
    assert _trace_lines(out_path)
    assert main(["stats", str(out_path)]) == EXIT_OK
    assert "r=3 s=3" in capsys.readouterr().out


EQ3EQ3_TRACE = """\
normalize m:6->6 n:4->4
opposing-pairs m:6->4 n:4->4
always-satisfied-removal m:4->3 n:4->4
unit-expand m:3->4 n:4->4
degree4 variable=0 m:4->8 n:4->7
arity-expand m:8->15 n:7->21
degree2-triplets m:15->42 n:21->43
deduplicate m:42->42 n:43->43
compact m:42->42 n:43->42
"""

# The exact trace text of each target on one input with a weight-2 row, an
# opposing unary pair and a variable of degree 4 once the pairs are folded.
# Every target runs one pipeline, so each trace is a prefix of eq3eq3's.
REDUCE_TRACES = {
    "deg3": "".join(EQ3EQ3_TRACE.splitlines(keepends=True)[:5]),
    "arity3": "".join(EQ3EQ3_TRACE.splitlines(keepends=True)[:6]),
    "eq3eq3": EQ3EQ3_TRACE,
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
    assert _trace_lines(out_path) == REDUCE_TRACES[target]


DEGREE5_TRACE = """\
normalize m:7->7 n:4->4
opposing-pairs m:7->5 n:4->4
always-satisfied-removal m:5->5 n:4->4
unit-expand m:5->5 n:4->4
degree5plus variable=0 m:5->10 n:4->8
arity-expand m:10->18 n:8->24
degree2-triplets m:18->48 n:24->48
deduplicate m:48->48 n:48->48
compact m:48->48 n:48->48
"""


@pytest.mark.parametrize("target, lines", [("deg3", 5), ("arity3", 6), ("eq3eq3", 9)])
def test_cli_reduce_trace_file_text_of_a_degree5_split(tmp_path, capsys, target, lines):
    # Variable 1 is in seven rows; folding its opposing unary pair leaves
    # five, which the 5-cycle splits with 4 fresh variables and 5 ties.
    source = _write(
        tmp_path,
        "src.lin2",
        "p lin2 4 7\n1 0 2 1 2\n1 1 2 1 3\n1 0 2 1 4\n1 1 3 1 2 3\n"
        "1 0 3 1 2 4\n1 1 1 1\n1 0 1 1\n",
    )
    out_path = tmp_path / "red.lin2"
    assert main(["reduce", source, "--target", target, "-o", str(out_path)]) == EXIT_OK
    capsys.readouterr()
    expected = "".join(DEGREE5_TRACE.splitlines(keepends=True)[:lines])
    assert _trace_lines(out_path) == expected


def test_cli_reduce_then_solve_keeps_forced_ledger(tmp_path, capsys):
    source = _write(
        tmp_path, "src.lin2", "p lin2 2 4\n1 0 1 1\n1 1 1 1\n1 0 1 2\n1 1 1 2\n"
    )
    out_path = tmp_path / "red.lin2"
    assert main(["reduce", source, "--target", "eq3eq3", "-o", str(out_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", str(out_path), "--mode", "exact"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "s OPTIMUM 2"


def _assert_refused(source, target, out_path, capsys) -> str:
    """Run `reduce`, expect exit 64 and no output or trace file; return stderr."""
    assert main(["reduce", source, "--target", target, "-o", str(out_path)]) == EXIT_USAGE
    assert not out_path.exists()
    assert not out_path.with_name(out_path.name + ".trace").exists()
    return capsys.readouterr().err


def _assert_drops_it_all(source, target, out_path, capsys) -> None:
    """An input whose every row holds a variable of no other row, however
    heavy, is always satisfiable: every target drops it at once. Only
    eq3eq3 drops the unused variable slots too."""
    started = time.monotonic()
    assert main(["reduce", source, "--target", target, "-o", str(out_path)]) == EXIT_OK
    assert time.monotonic() - started < 1
    reduced = parse_lin2(out_path.read_text())
    assert reduced.lhs == ()
    assert capsys.readouterr().out == f"s REDUCED n={reduced.n} m=0\n"
    assert reduced.n == 0 or target != "eq3eq3"


def test_cli_reduce_refuses_huge_weight_promptly(tmp_path, capsys):
    # x1 = 1 of weight 10^9 on a cycle of unit rows, so no row can be dropped.
    kept = _write(tmp_path, "big.lin2", "p lin2 2 3\n1000000000 1 1 1\n1 0 2 1 2\n1 1 1 2\n")
    alone = _write(tmp_path, "alone.lin2", "p lin2 1 1\n1000000000 1 1 1\n")
    started = time.monotonic()
    for target in TARGETS:
        err = _assert_refused(kept, target, tmp_path / f"{target}.lin2", capsys)
        assert "unit expansion would build 1000000002" in err
    assert time.monotonic() - started < 5
    for target in TARGETS:
        _assert_drops_it_all(alone, target, tmp_path / f"alone.{target}.lin2", capsys)


def test_cli_reduce_refuses_oversize_degree_split_promptly(tmp_path, capsys):
    # One variable in 350 equations of weight 240 occurs 84,000 times once
    # unit-expanded, and with its leaves would split into about 1.02 * 10^7
    # equations. A unit row on each leaf keeps the star's rows from being
    # dropped.
    rows = "".join(f"240 0 2 1 {j}\n" for j in range(2, 352))
    leaves = "".join(f"1 0 1 {j}\n" for j in range(2, 352))
    kept = _write(tmp_path, "star.lin2", f"p lin2 351 700\n{rows}{leaves}")
    bare = _write(tmp_path, "bare.lin2", f"p lin2 351 350\n{rows}")
    started = time.monotonic()
    for target in TARGETS:
        err = _assert_refused(kept, target, tmp_path / f"{target}.lin2", capsys)
        assert "degree splitting would build 10152814" in err
    assert time.monotonic() - started < 1
    for target in TARGETS:
        _assert_drops_it_all(bare, target, tmp_path / f"bare.{target}.lin2", capsys)


def test_cli_reduce_refuses_an_oversize_output_before_building(tmp_path, capsys):
    # A heavy row whose unit copies fit but whose splits do not, and two
    # stars whose splits fit but whose (=3,=3) output does not. A unit row
    # on each endpoint keeps their rows from being dropped as always
    # satisfiable.
    bare_heavy = _write(tmp_path, "bare_heavy.lin2", "p lin2 2 1\n5000000 0 2 1 2\n")
    heavy = _write(tmp_path, "heavy.lin2", "p lin2 2 3\n5000000 0 2 1 2\n1 0 1 1\n1 0 1 2\n")
    rows = "".join(f"2 0 2 {c} {c + j}\n" for c in (1, 7002) for j in range(1, 7001))
    leaves = "".join(f"1 0 1 {c + j}\n" for c in (1, 7002) for j in range(1, 7001))
    bare_star = _write(tmp_path, "bare_star.lin2", f"p lin2 14002 14000\n{rows}")
    star = _write(tmp_path, "star.lin2", f"p lin2 14002 28000\n{rows}{leaves}")
    started = time.monotonic()
    for source, target, stage in (
        (heavy, "eq3eq3", "degree splitting"),
        (heavy, "deg3", "degree splitting"),
        (heavy, "arity3", "degree splitting"),
        (star, "eq3eq3", "the (=3,=3) finish"),
    ):
        err = _assert_refused(source, target, tmp_path / "out.lin2", capsys)
        assert f"error: {stage} would build" in err
    assert time.monotonic() - started < 1
    for target in TARGETS:
        _assert_drops_it_all(bare_heavy, target, tmp_path / f"heavy.{target}.lin2", capsys)
        _assert_drops_it_all(bare_star, target, tmp_path / f"star.{target}.lin2", capsys)


def test_cli_reduce_writes_one_file_or_none(tmp_path, capsys):
    # The trace goes into the output as comments: one file, or none when
    # the output cannot be written.
    source = _write(tmp_path, "src.lin2", "p lin2 3 1\n1 1 3 1 2 3\n")
    out_path = tmp_path / "out" / "x.lin2"
    args = ["reduce", source, "--target", "eq3eq3", "-o", str(out_path)]
    assert main(args) == EXIT_USAGE
    assert "cannot write" in capsys.readouterr().err
    assert not out_path.parent.exists()
    out_path.parent.mkdir()
    assert main(args) == EXIT_OK
    assert [p.name for p in out_path.parent.iterdir()] == ["x.lin2"]
    assert _trace_lines(out_path)


@pytest.mark.parametrize("target", TARGETS)
def test_cli_reduce_writes_its_trace_into_its_one_output(tmp_path, capsys, target):
    # The output is the only file reduce leaves; it reads back as the
    # library's reduced system, and its `c trace` lines, joined, are the
    # library's trace text.
    rng = random.Random(0x7AC)
    for index in range(8):
        system = random_system(rng, max_vars=5, max_eqs=7, max_weight=2, max_arity=3)
        workdir = tmp_path / str(index)
        workdir.mkdir()
        source = _write(workdir, "in.lin2", emit_lin2(system))
        out_path = workdir / "out.lin2"
        assert main(["reduce", source, "--target", target, "-o", str(out_path)]) == EXIT_OK
        capsys.readouterr()
        assert sorted(p.name for p in workdir.iterdir()) == ["in.lin2", "out.lin2"]
        reduced, trace = reduce_to_target(system, target)
        assert out_path.read_text().startswith(f"c reduced target={target}\nc trace normalize ")
        assert parse_lin2(out_path.read_text()) == reduced
        assert _trace_lines(out_path) == trace.text()


def test_cli_reduce_refuses_arity_above_3_for_arity_targets(tmp_path, capsys):
    # Every variable is in two rows, so always-satisfied-removal keeps them.
    text = "p lin2 4 3\n1 1 2 1 2\n1 0 4 1 2 3 4\n1 1 2 3 4\n"
    source = _write(tmp_path, "wide.lin2", text)
    for target in ("arity3", "eq3eq3"):
        out_path = tmp_path / f"{target}.lin2"
        assert main(["reduce", source, "--target", target, "-o", str(out_path)]) == EXIT_USAGE
        assert not out_path.exists()
        assert "arity at most 3" in capsys.readouterr().err
    out_path = tmp_path / "deg3.lin2"
    assert main(["reduce", source, "--target", "deg3", "-o", str(out_path)]) == EXIT_OK
    assert capsys.readouterr().out == "s REDUCED n=4 m=3\n"
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

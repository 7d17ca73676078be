"""Text formats: equation systems, odd-set instances, graphs, assignments.

All formats follow the DIMACS convention: `c` comment lines, one `p` header
line, then one record per line. Variable and vertex indices are 1-based in
files and 0-based in memory. One reader, `_records`, owns the header of all
three input formats, refusing an n above MAX_UNIT_EQUATIONS and checking the
record count, and yields each record's tokens as strings.

`.lin2` has two readers. A plain text is decoded in bulk: `c` lines and the
`p lin2` header, then rows of decimal integers split by single spaces, one
row per line, with no blank line. That is what `emit_lin2` writes. `_records`
still reads the header and the `c` lines before it, so a too large n is
refused first; the rows are then decoded one chunk of about 64 KB at a time,
each with one `json.loads`, and `core._check_rows` checks them. Any other
text, and a plain text with any fault, is read line by line, checking each
record as it is read; that reader is the only one that names a fault. Every
text gives the same system either way, and a faulty one the same FormatError.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from operator import itemgetter

from .bipartize import Edge, Graph
from .core import MAX_UNIT_EQUATIONS, CapacityError, LinSystem, MaxLin2Error
from .gadgets import OddSetInstance


class FormatError(MaxLin2Error):
    """Malformed input text."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _ints(lineno: int, tokens: list[str]) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        for tok in tokens:  # find the bad token to name it
            try:
                int(tok)
            except ValueError:
                raise FormatError(lineno, f"expected an integer, got {tok!r}") from None
        raise


def _forced_ledger(comments) -> int:
    """Value of the `c forced-falsified <N>` comment, 0 when there is none."""
    forced = None
    for lineno, tokens in comments:
        if tokens[:2] != ["c", "forced-falsified"]:
            continue
        if forced is not None:
            raise FormatError(lineno, "repeated forced-falsified line")
        values = _ints(lineno, tokens[2:])
        if len(values) != 1 or values[0] < 0:
            raise FormatError(lineno, "forced-falsified needs one nonnegative count")
        forced = values[0]
    return forced or 0


def _records(text: str, header: str, noun: str, comments: list):
    """Yield the counts of the one `p` header, then (lineno, tokens) per record.

    header is the usage text, like "p lin2 <n> <m>", and gives the header's
    kind and length. A header n above MAX_UNIT_EQUATIONS raises CapacityError
    before anything is sized by it; the record count must be the header's m.
    A line whose first token starts with `c` goes to comments as (lineno, tokens).
    """
    shape = header.split()
    counts = None
    found = 0
    for lineno, tokens in enumerate(map(str.split, text.splitlines()), 1):
        if not tokens:
            continue
        if tokens[0][0] == "c":
            comments.append((lineno, tokens))
        elif tokens[0] == "p":
            if counts is not None:
                raise FormatError(lineno, "duplicate header")
            if len(tokens) != len(shape) or tokens[1] != shape[1]:
                raise FormatError(lineno, f"header must be '{header}'")
            counts = _ints(lineno, tokens[2:])
            if min(counts) < 0:
                raise FormatError(lineno, "header counts must be nonnegative")
            if counts[0] > MAX_UNIT_EQUATIONS:
                raise CapacityError(
                    f"line {lineno}: n = {counts[0]} is over {MAX_UNIT_EQUATIONS}"
                )
            yield counts
        elif counts is None:
            raise FormatError(lineno, "record before header")
        else:
            found += 1
            yield lineno, tokens
    if counts is None:
        raise FormatError(0, "missing header")
    if found != counts[1]:
        raise FormatError(0, f"header declares {counts[1]} {noun}, found {found}")


_LIN2_HEADER = "p lin2 <n> <m>"
# One line, holding none of the line breaks that str.splitlines knows, so
# _records reads a plain head as the same lines.
_LINE = r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*\n"
_PLAIN_HEAD = re.compile(f"(?:c{_LINE})*p lin2 {_LINE}")
# The only characters of a plain body. json.loads refuses every other
# arrangement of them but a blank line or a short row, and the arity check
# refuses those.
_PLAIN_BODY = re.compile(r"[-0-9 \n]*")
_CHUNK = 1 << 16


def parse_lin2(text: str) -> LinSystem:
    """Parse `p lin2 <n> <m>` plus m records `<w> <b> <r> <i1> ... <ir>`.

    A `c forced-falsified <N>` comment sets the forced ledger. A plain text
    is decoded in bulk and LinSystem.from_columns checks its rows. Any
    other text, and a plain one that fails there, is read line by line,
    which checks each record as it reads it and names the first fault.
    """
    try:
        plain = _plain_lin2(text)
        if plain is not None:
            return _lin2_system(*plain)
    except (ValueError, FormatError):
        pass
    return _lin2_system(*_lin2_lines(text))


def _lin2_system(n: int, columns, comments) -> LinSystem:
    """The system of what either reader returned, with its forced ledger."""
    return LinSystem.from_columns(n, *columns, _forced_ledger(comments))


def _plain_lin2(text: str):
    """(n, columns, comments) of a plain text, one chunk at a time; None for
    any other text, or when the rows' arities or count do not hold."""
    head = _PLAIN_HEAD.match(text)
    if head is None:
        return None
    comments: list = []
    n, m = next(_records(head[0], _LIN2_HEADER, "records", comments))
    lhs, rhs, weights = [], bytearray(), []
    start = head.end()
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end].removesuffix("\n")
        start = end
        if not _PLAIN_BODY.fullmatch(chunk):
            return None
        try:
            rows = json.loads("[[" + chunk.replace(" ", ",").replace("\n", "],[") + "]]")
            if [r[2] + 3 for r in rows] != list(map(len, rows)):
                return None
            rhs.extend(map(itemgetter(1), rows))  # refuses a value outside 0..255
        except (ValueError, IndexError):
            return None
        weights += map(itemgetter(0), rows)
        # Rows of arity 1 to 3 build their tuple directly, several times
        # faster than through map.
        lhs += [
            (r[3] - 1, r[4] - 1) if (arity := r[2]) == 2
            else (r[3] - 1,) if arity == 1
            else (r[3] - 1, r[4] - 1, r[5] - 1) if arity == 3
            else tuple(map((-1).__add__, r[3:]))
            for r in rows
        ]
    if len(weights) != m:
        return None
    return n, (lhs, rhs, weights), comments


def _lin2_lines(text: str):
    """(n, columns, comments) of any text, read line by line; raises the
    FormatError of the first faulty record."""
    lhs, rhs_column, weights, comments = [], bytearray(), [], []
    records = _records(text, _LIN2_HEADER, "records", comments)
    n = next(records)[0]
    for lineno, tokens in records:
        values = _ints(lineno, tokens)
        if len(values) < 3:
            raise FormatError(lineno, "record needs weight, rhs and arity")
        weight, rhs, arity, *indices = values
        if weight < 1:
            raise FormatError(lineno, f"weight must be >= 1, got {weight}")
        if rhs not in (0, 1):
            raise FormatError(lineno, f"rhs must be 0 or 1, got {rhs}")
        if len(indices) != arity:
            raise FormatError(lineno, f"expected {arity} indices, got {len(indices)}")
        for a, b in zip(indices, indices[1:]):
            if b == a:
                raise FormatError(lineno, f"duplicate index {a}")
            if b < a:
                raise FormatError(lineno, "indices must be strictly ascending")
        bad = [i for i in indices if not 1 <= i <= n]
        if bad:
            raise FormatError(lineno, f"index {bad[0]} out of range 1..{n}")
        lhs.append(tuple([i - 1 for i in indices]))
        rhs_column.append(rhs)
        weights.append(weight)
    return n, (lhs, rhs_column, weights), comments


# The digit of each bit, for bytes.translate.
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def emit_lin2(system: LinSystem, comments=()) -> str:
    """Serialize a system; a nonzero ledger goes on a forced-falsified line.

    One `%` fills the rows' templates (`_row_templates`) with the names of
    their variables.
    """
    lines = [f"c {comment}\n" for comment in comments]
    if system.forced_falsified:
        lines.append(f"c forced-falsified {system.forced_falsified}\n")
    lhs_column = system.lhs
    lines.append(f"p lin2 {system.n} {len(lhs_column)}\n")
    # With n above the row count only the variables the rows hold are
    # named; otherwise n names cost no more than the rows.
    if system.n > len(lhs_column):
        name = {v: str(v + 1) for v in set(chain.from_iterable(lhs_column))}.__getitem__
    else:
        name = [str(i) for i in range(1, system.n + 1)].__getitem__
    lines.append(_row_templates(system) % tuple(map(name, chain.from_iterable(lhs_column))))
    return "".join(lines)


def _row_templates(system: LinSystem) -> str:
    """Each row's (weight, rhs, arity) template in turn, like "1 0 3 %s %s %s\n".

    When the rows share one weight and one arity, as every system `maxlin2
    reduce` writes does, only the rhs digit tells the templates apart, so
    the text is one template repeated m times with each rhs digit written
    in. Otherwise the keys are read twice, once for the templates and once
    for the rows.
    """
    weights, arities = set(system.weights), set(map(len, system.lhs))
    if len(weights) == len(arities) == 1:
        ((weight,), (arity,)) = weights, arities
        template = f"{weight} 0 {arity}" + " %s" * arity + "\n"
        text = bytearray(template.encode()) * len(system.lhs)
        text[len(f"{weight} ") :: len(template)] = system.rhs.translate(_DIGITS)
        return text.decode()

    def keys():
        return zip(system.weights, system.rhs, map(len, system.lhs))

    template = {key: "%d %d %d" % key + " %s" * key[2] + "\n" for key in set(keys())}
    return "".join(map(template.__getitem__, keys()))


def parse_oddset(text: str) -> OddSetInstance:
    """Parse `p ods <n> <m> <k>` plus m records `<r> <j1> ... <jr>`."""
    sets: dict[tuple[int, ...], None] = {}  # insertion-ordered and deduplicated
    records = _records(text, "p ods <n> <m> <k>", "sets", [])
    n, _, k = next(records)
    for lineno, tokens in records:
        size, *members = _ints(lineno, tokens)
        if size < 1:
            raise FormatError(lineno, "empty set not allowed")
        if len(members) != size:
            raise FormatError(lineno, f"expected {size} elements, got {len(members)}")
        if len(set(members)) != size:
            raise FormatError(lineno, "repeated element in set")
        for j in members:
            if not 1 <= j <= n:
                raise FormatError(lineno, f"element {j} out of range 1..{n}")
        canonical = tuple(sorted(j - 1 for j in members))
        if canonical in sets:
            raise FormatError(lineno, "duplicate set")
        sets[canonical] = None
    return OddSetInstance(n, tuple(sets), k)


def parse_graph(text: str) -> Graph:
    """Parse `p graph <n> <m>` plus m edge records `<u> <v>`."""
    edges: list[Edge] = []
    records = _records(text, "p graph <n> <m>", "edges", [])
    n = next(records)[0]
    for lineno, tokens in records:
        values = _ints(lineno, tokens)
        if len(values) != 2:
            raise FormatError(lineno, "edge record must be '<u> <v>'")
        for x in values:
            if not 1 <= x <= n:
                raise FormatError(lineno, f"vertex {x} out of range 1..{n}")
        u, v = values
        if u == v:
            raise FormatError(lineno, f"self-loop at vertex {u} is not allowed")
        edges.append(Edge(u - 1, v - 1))
    return Graph(n, tuple(edges))


def parse_assignment(text: str, n: int) -> tuple[int, ...]:
    """Parse one line of n space-separated bits, as `maxlin2 solve` prints it:
    `c` and `s` lines and a leading `v` tag are skipped; with n = 0 the line may be absent."""
    lines = enumerate(map(str.split, text.splitlines()), 1)
    lines = [(lineno, tokens) for lineno, tokens in lines if tokens and tokens[0][0] not in "cs"]
    if not lines and n == 0:
        return ()
    if len(lines) != 1:
        raise FormatError(0, f"expected one assignment line, found {len(lines)}")
    ((lineno, tokens),) = lines
    if tokens[0] == "v":
        del tokens[0]
    values = _ints(lineno, tokens)
    if len(values) != n:
        raise FormatError(lineno, f"expected {n} bits, got {len(values)}")
    if values.count(0) + values.count(1) != n:
        raise FormatError(lineno, "assignment entries must be 0 or 1")
    return tuple(values)


def emit_assignment(assignment, tag: str = "") -> str:
    """The bits on one line, space-separated, after a one-letter tag if given."""
    bits = bytes(assignment).translate(_DIGITS)
    return " ".join(tag + bits.decode()) + "\n"

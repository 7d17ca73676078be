"""Text formats: equation systems, odd-set instances, graphs, assignments.

All formats follow the DIMACS convention: `c` comment lines, one `p` header
line, then one record per line. Variable and vertex indices are 1-based in
files and 0-based in memory.
"""

from __future__ import annotations

from itertools import chain

from .bipartize import Edge, Graph, GraphError
from .core import MAX_UNIT_EQUATIONS, CapacityError, LinSystem, MaxLin2Error
from .gadgets import OddSetInstance


class FormatError(MaxLin2Error):
    """Malformed input text."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _content_lines(text: str, comments: list | None = None):
    """Yield (lineno, line) for non-blank, non-comment lines.

    Comment lines are collected into comments when a list is given.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("c"):
            if comments is not None:
                comments.append((lineno, line))
        elif line:
            yield lineno, line


def _ints(lineno: int, tokens) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise FormatError(lineno, f"expected an integer, got {tok!r}") from None
    return out


def _forced_ledger(comments) -> int:
    """Value of the `c forced-falsified <N>` comment, 0 when there is none."""
    forced = None
    for lineno, line in comments:
        tokens = line.split()
        if tokens[:2] != ["c", "forced-falsified"]:
            continue
        if forced is not None:
            raise FormatError(lineno, "repeated forced-falsified line")
        values = _ints(lineno, tokens[2:])
        if len(values) != 1 or values[0] < 0:
            raise FormatError(lineno, "forced-falsified needs one nonnegative count")
        forced = values[0]
    return forced or 0


def parse_lin2(text: str) -> LinSystem:
    """Parse `p lin2 <n> <m>` plus m records `<w> <b> <r> <i1> ... <ir>`.

    A `c forced-falsified <N>` comment line sets the forced ledger. A header
    n above MAX_UNIT_EQUATIONS raises CapacityError before anything is sized.
    """
    header = None
    lhs: list[tuple[int, ...]] = []
    rhs_column = bytearray()
    weights: list[int] = []
    comments: list[tuple[int, str]] = []
    for lineno, line in _content_lines(text, comments):
        tokens = line.split()
        if tokens[0] == "p":
            if header is not None:
                raise FormatError(lineno, "duplicate header")
            if len(tokens) != 4 or tokens[1] != "lin2":
                raise FormatError(lineno, "header must be 'p lin2 <n> <m>'")
            n, m = _ints(lineno, tokens[2:])
            if n < 0 or m < 0:
                raise FormatError(lineno, "header counts must be nonnegative")
            if n > MAX_UNIT_EQUATIONS:
                raise CapacityError(f"line {lineno}: n = {n} is over {MAX_UNIT_EQUATIONS}")
            header = (n, m)
            continue
        if header is None:
            raise FormatError(lineno, "record before header")
        try:
            values = list(map(int, tokens))
        except ValueError:
            values = _ints(lineno, tokens)  # raises, naming the bad token
        if len(values) < 3:
            raise FormatError(lineno, "record needs weight, rhs and arity")
        weight, rhs, arity = values[:3]
        indices = values[3:]
        if weight < 1:
            raise FormatError(lineno, f"weight must be >= 1, got {weight}")
        if rhs not in (0, 1):
            raise FormatError(lineno, f"rhs must be 0 or 1, got {rhs}")
        if arity < 0 or len(indices) != arity:
            raise FormatError(lineno, f"expected {arity} indices, got {len(indices)}")
        for a, b in zip(indices, indices[1:]):
            if b == a:
                raise FormatError(lineno, f"duplicate index {a}")
            if b < a:
                raise FormatError(lineno, "indices must be strictly ascending")
        # Ascending, so only the ends can be out of range.
        if indices and (indices[0] < 1 or indices[-1] > header[0]):
            bad = next(i for i in indices if not 1 <= i <= header[0])
            raise FormatError(lineno, f"index {bad} out of range 1..{header[0]}")
        lhs.append(tuple([i - 1 for i in indices]))
        rhs_column.append(rhs)
        weights.append(weight)
    if header is None:
        raise FormatError(0, "missing header")
    if len(lhs) != header[1]:
        raise FormatError(0, f"header declares {header[1]} records, found {len(lhs)}")
    return LinSystem.from_columns(
        header[0], lhs, rhs_column, weights, _forced_ledger(comments)
    )


def emit_lin2(system: LinSystem, comments=()) -> str:
    """Serialize a system; a nonzero ledger goes on a forced-falsified line.

    One `%` fills each row's per-call (weight, rhs, arity) template, like "1 0 3 %s %s %s".
    """
    lines = [f"c {comment}\n" for comment in comments]
    if system.forced_falsified:
        lines.append(f"c forced-falsified {system.forced_falsified}\n")
    lines.append(f"p lin2 {system.n} {len(system.lhs)}\n")
    keys = list(zip(system.weights, system.rhs, map(len, system.lhs)))
    template = {key: "%d %d %d" % key + " %s" * key[2] + "\n" for key in set(keys)}
    name = [str(i) for i in range(1, system.n + 1)].__getitem__
    names = tuple(map(name, chain.from_iterable(system.lhs)))
    lines.append("".join(map(template.__getitem__, keys)) % names)
    return "".join(lines)


def parse_oddset(text: str) -> OddSetInstance:
    """Parse `p ods <n> <m> <k>` plus m records `<r> <j1> ... <jr>`."""
    header = None
    sets: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "p":
            if header is not None:
                raise FormatError(lineno, "duplicate header")
            if len(tokens) != 5 or tokens[1] != "ods":
                raise FormatError(lineno, "header must be 'p ods <n> <m> <k>'")
            n, m, k = _ints(lineno, tokens[2:])
            if n < 0 or m < 0 or k < 0:
                raise FormatError(lineno, "header counts must be nonnegative")
            header = (n, m, k)
            continue
        if header is None:
            raise FormatError(lineno, "record before header")
        values = _ints(lineno, tokens)
        size = values[0]
        members = values[1:]
        if size < 1:
            raise FormatError(lineno, "empty set not allowed")
        if len(members) != size:
            raise FormatError(lineno, f"expected {size} elements, got {len(members)}")
        if len(set(members)) != size:
            raise FormatError(lineno, "repeated element in set")
        for j in members:
            if not 1 <= j <= header[0]:
                raise FormatError(lineno, f"element {j} out of range 1..{header[0]}")
        canonical = tuple(sorted(j - 1 for j in members))
        if canonical in seen:
            raise FormatError(lineno, "duplicate set")
        seen.add(canonical)
        sets.append(canonical)
    if header is None:
        raise FormatError(0, "missing header")
    if len(sets) != header[1]:
        raise FormatError(0, f"header declares {header[1]} sets, found {len(sets)}")
    return OddSetInstance(header[0], tuple(sets), header[2])


def parse_graph(text: str) -> Graph:
    """Parse `p graph <n> <m>` plus m edge records `<u> <v>`."""
    header = None
    edges: list[Edge] = []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "p":
            if header is not None:
                raise FormatError(lineno, "duplicate header")
            if len(tokens) != 4 or tokens[1] != "graph":
                raise FormatError(lineno, "header must be 'p graph <n> <m>'")
            n, m = _ints(lineno, tokens[2:])
            if n < 0 or m < 0:
                raise FormatError(lineno, "header counts must be nonnegative")
            header = (n, m)
            continue
        if header is None:
            raise FormatError(lineno, "record before header")
        values = _ints(lineno, tokens)
        if len(values) != 2:
            raise FormatError(lineno, "edge record must be '<u> <v>'")
        u, v = values
        for x in (u, v):
            if not 1 <= x <= header[0]:
                raise FormatError(lineno, f"vertex {x} out of range 1..{header[0]}")
        try:
            edges.append(Edge(u - 1, v - 1))
        except GraphError as exc:
            raise FormatError(lineno, str(exc)) from None
    if header is None:
        raise FormatError(0, "missing header")
    if len(edges) != header[1]:
        raise FormatError(0, f"header declares {header[1]} edges, found {len(edges)}")
    return Graph(header[0], tuple(edges))


def parse_assignment(text: str, n: int) -> tuple[int, ...]:
    """Parse a single line of n space-separated bits."""
    lines = list(_content_lines(text))
    if len(lines) != 1:
        raise FormatError(0, f"expected one assignment line, found {len(lines)}")
    ((lineno, line),) = lines
    values = _ints(lineno, line.split())
    if len(values) != n:
        raise FormatError(lineno, f"expected {n} bits, got {len(values)}")
    if any(b not in (0, 1) for b in values):
        raise FormatError(lineno, "assignment entries must be 0 or 1")
    return tuple(values)


def emit_assignment(assignment) -> str:
    return " ".join(str(b) for b in assignment) + "\n"

"""Command-line interface: solve, reduce, verify, and inspect instances.

Output is line-oriented and deterministic: status lines start with `s`,
assignments with `v`, deletion sets with `d`. `reduce` writes one file:
the reduced system, with one `c trace` line per step ahead of the header,
which the `.lin2` readers skip. Exit codes: 0 clean, 2 verification
mismatch, 64 usage error, 65 malformed input, 141 the reader of the output
closed it early (the status a shell reports for a SIGPIPE death).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import gadgets
from .baseline import (
    DEFAULT_VAR_LIMIT,
    brute_force_min_falsified,
    conditional_expectation_assignment,
)
from .bipartize import edge_bipartization
from .core import (
    CapacityError,
    InstanceClassError,
    LinSystem,
    MaxLin2Error,
    evaluate,
    profile,
)
from .formats import (
    FormatError,
    emit_assignment,
    emit_lin2,
    parse_assignment,
    parse_graph,
    parse_lin2,
    parse_oddset,
)
from .occ2 import solve_occ2
from .twovar import solve_below_W

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_USAGE = 64
EXIT_FORMAT = 65
EXIT_PIPE = 141


class UsageError(MaxLin2Error):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(lineno, f"{path} is not UTF-8 text") from None


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _solve(mode: str, system: LinSystem, args) -> tuple[str, tuple | None]:
    """Run one solver: its status text, and its assignment (None after NO)."""
    if mode == "occ2":
        result = solve_occ2(system)
    elif mode == "two-var":
        if args.k is None:
            raise UsageError("two-var mode requires -k")
        result = solve_below_W(system, args.k)
        if result is None:
            return "NO", None
        return f"YES {result.falsified_weight}", result.assignment
    elif mode == "exact":
        result = brute_force_min_falsified(system, var_limit=args.oracle_limit)
    else:  # approx
        result = conditional_expectation_assignment(system)
        return f"APPROX {evaluate(system, result.assignment)[0]}", result.assignment
    return f"OPTIMUM {result.falsified_weight}", result.assignment


def _cmd_solve(args) -> int:
    """Auto mode asks occ2, then two-var (given -k), then the oracle; the
    first that does not refuse the instance's class or size answers."""
    system = parse_lin2(_read(args.file))
    if args.mode != "auto":
        status, assignment = _solve(args.mode, system, args)
    else:
        for mode in ("occ2", "exact") if args.k is None else ("occ2", "two-var", "exact"):
            try:
                status, assignment = _solve(mode, system, args)
                break
            except (InstanceClassError, CapacityError):
                pass
        else:
            raise UsageError(
                "auto mode found no applicable solver; pass -k for two-var or raise "
                "--oracle-limit"
            )
    print(f"s {status}")
    if assignment is not None:
        sys.stdout.write(emit_assignment(assignment, "v"))
    return EXIT_OK


def _cmd_stats(args) -> int:
    system = parse_lin2(_read(args.file))
    prof = profile(system)
    print(
        "s STATS"
        f" n={prof.num_variables} m={prof.num_equations} W={prof.total_weight}"
        f" r={prof.max_arity} s={prof.max_occurrence}"
        f" unit={int(prof.unit_weights)} distinct={int(prof.distinct_lhs)}"
        f" forced={system.forced_falsified}"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    system = parse_lin2(_read(args.file))
    assignment = parse_assignment(_read(args.assignment), system.n)
    satisfied, falsified = evaluate(system, assignment)
    if args.falsified is not None and args.falsified != falsified:
        print(f"s MISMATCH claimed {args.falsified} actual {falsified}")
        return EXIT_MISMATCH
    print(f"s VERIFIED satisfied {satisfied} falsified {falsified}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    """Write the reduced system, its trace as `c trace` lines ahead of the header."""
    system = parse_lin2(_read(args.file))
    reduced, trace = gadgets.reduce_to_target(system, args.target)
    trace_lines = (f"trace {line}" for line in trace.text().splitlines())
    comments = (f"reduced target={args.target}", *trace_lines)
    _write(args.output, emit_lin2(reduced, comments=comments))
    print(f"s REDUCED n={reduced.n} m={len(reduced.lhs)}")
    return EXIT_OK


def _cmd_from_oddset(args) -> int:
    instance = parse_oddset(_read(args.file))
    reduction = gadgets.oddset_to_lin2(instance)
    _write(args.output, emit_lin2(reduction.system, comments=(f"k {reduction.budget}",)))
    print(f"s K {reduction.budget}")
    return EXIT_OK


def _cmd_bipartize(args) -> int:
    graph = parse_graph(_read(args.file))
    result = edge_bipartization(graph, args.k)
    if result is None:
        print("s NONE")
    else:
        deleted = sorted(result.deleted_edges)
        print(f"s BIPARTIZATION {len(deleted)}")
        print("d " + " ".join(str(e + 1) for e in deleted) if deleted else "d")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="maxlin2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", parents=[], help="solve an equation system")
    solve.add_argument("file")
    solve.add_argument(
        "--mode",
        choices=("auto", "exact", "occ2", "two-var", "approx"),
        default="auto",
    )
    solve.add_argument("-k", type=int, default=None, help="falsified-weight budget")
    solve.add_argument("--oracle-limit", type=int, default=DEFAULT_VAR_LIMIT)
    solve.set_defaults(func=_cmd_solve)

    stats = sub.add_parser("stats", help="print the instance profile")
    stats.add_argument("file")
    stats.set_defaults(func=_cmd_stats)

    verify = sub.add_parser("verify", help="evaluate an assignment file")
    verify.add_argument("file")
    verify.add_argument("assignment")
    verify.add_argument(
        "--falsified", type=int, default=None, help="claimed falsified weight"
    )
    verify.set_defaults(func=_cmd_verify)

    reduce_cmd = sub.add_parser("reduce", help="apply the gadget pipeline")
    reduce_cmd.add_argument("file")
    reduce_cmd.add_argument("--target", choices=("deg3", "arity3", "eq3eq3"),
                            required=True)
    reduce_cmd.add_argument("-o", "--output", required=True)
    reduce_cmd.set_defaults(func=_cmd_reduce)

    oddset = sub.add_parser("from-oddset", help="encode an odd-set instance")
    oddset.add_argument("file")
    oddset.add_argument("-o", "--output", required=True)
    oddset.set_defaults(func=_cmd_from_oddset)

    bip = sub.add_parser("bipartize", help="minimum edge deletion to bipartite")
    bip.add_argument("file")
    bip.add_argument("-k", type=int, required=True)
    bip.set_defaults(func=_cmd_bipartize)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe. Whatever is still buffered goes to
        # devnull, so that the interpreter's flush at exit raises nothing.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_PIPE
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (UsageError, InstanceClassError, CapacityError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

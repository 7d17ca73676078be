"""Command-line interface: solve, reduce, verify, and inspect instances.

Output is line-oriented and deterministic: status lines start with `s`,
assignments with `v`, deletion sets with `d`. Exit codes: 0 clean, 2
verification mismatch, 64 usage error, 65 malformed input.
"""

from __future__ import annotations

import argparse
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
    expand_unit_weights,
    normalize,
    profile,
)
from .formats import (
    FormatError,
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


class UsageError(MaxLin2Error):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _print_assignment(assignment) -> None:
    print("v " + " ".join(str(b) for b in assignment) if assignment else "v")


def _pick_mode(system: LinSystem, args) -> str:
    prof = profile(system)
    if prof.max_occurrence <= 2:
        return "occ2"
    if prof.max_arity <= 2 and args.k is not None:
        return "two-var"
    if system.n <= args.oracle_limit:
        return "exact"
    raise UsageError(
        "auto mode found no applicable solver; pass -k for two-var or raise "
        "--oracle-limit"
    )


def _cmd_solve(args) -> int:
    system = parse_lin2(_read(args.file))
    mode = args.mode if args.mode != "auto" else _pick_mode(system, args)
    if mode == "exact":
        result = brute_force_min_falsified(system, var_limit=args.oracle_limit)
        print(f"s OPTIMUM {result.falsified_weight}")
        _print_assignment(result.assignment)
    elif mode == "occ2":
        result = solve_occ2(system)
        print(f"s OPTIMUM {result.falsified_weight}")
        _print_assignment(result.assignment)
    elif mode == "two-var":
        if args.k is None:
            raise UsageError("two-var mode requires -k")
        result = solve_below_W(system, args.k)
        if result is None:
            print("s NO")
        else:
            print(f"s YES {result.falsified_weight}")
            _print_assignment(result.assignment)
    else:  # approx
        result = conditional_expectation_assignment(system)
        satisfied, _ = evaluate(system, result.assignment)
        print(f"s APPROX {satisfied}")
        _print_assignment(result.assignment)
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


def _run_reduction(system: LinSystem, target: str):
    if target == "eq3eq3":
        return gadgets.to_eq3_eq3(system)
    if target == "arity3" and max(map(len, system.lhs), default=0) > 3:
        raise InstanceClassError("arity3 input must have arity at most 3")
    base = expand_unit_weights(normalize(system))
    mid, trace = gadgets.normalize_max_degree3(base)
    if target == "deg3":
        return mid, trace
    out, arity_step = gadgets._expand_arity_step(mid)
    return out, gadgets.ReductionTrace(trace.steps + (arity_step,), base, out)


def _write_trace(path: Path, trace) -> None:
    lines = []
    for step in trace.steps:
        detail = ""
        if step.rule in ("degree4", "degree5plus"):
            detail = f" variable={step.data['variable']}"
        lines.append(
            f"{step.rule}{detail}"
            f" m:{step.pre_m}->{step.post_m} n:{step.pre_n}->{step.post_n}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_reduce(args) -> int:
    system = parse_lin2(_read(args.file))
    reduced, trace = _run_reduction(system, args.target)
    out = Path(args.output)
    out.write_text(emit_lin2(reduced, comments=(f"reduced target={args.target}",)))
    trace_path = Path(args.trace) if args.trace else out.with_suffix(out.suffix + ".trace")
    _write_trace(trace_path, trace)
    print(f"s REDUCED n={reduced.n} m={len(reduced.lhs)}")
    return EXIT_OK


def _cmd_from_oddset(args) -> int:
    instance = parse_oddset(_read(args.file))
    reduction = gadgets.oddset_to_lin2(instance)
    Path(args.output).write_text(
        emit_lin2(reduction.system, comments=(f"k {reduction.budget}",))
    )
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
    reduce_cmd.add_argument("--trace", default=None)
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
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (UsageError, InstanceClassError, CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

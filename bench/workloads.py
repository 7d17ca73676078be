"""The benchmark's workloads: seeded ops, how each op runs, and its check.

An op starts from ``.lin2`` text and ends at an answer. ``run`` is the timed
part; ``check`` verifies the answer independently of the solver under test
and returns a failure message or None; ``digest`` lets a repeated pass be
compared with the checked first pass without re-running the full check.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import generators as gen


@dataclass
class Op:
    kind: str
    text: str
    n: int
    rows: list
    expect: object = None  # planted optimum, or the forward map's input

    @property
    def size(self) -> dict:
        return {"n": self.n, "m": len(self.rows), "W": sum(w for _, _, w in self.rows)}


@dataclass
class Answer:
    value: object
    output_m: int  # equations in the op's output (reduced system or certificate)


def _ladder(lo: int, hi: int, count: int) -> list[int]:
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


# ---------------------------------------------------------------------------
# occ2-mixed: solve_occ2 and solve_occ2_merge on occurrence <= 2 systems


class Occ2Mixed:
    name = "occ2-mixed"

    def build(self, rng: random.Random, pkg, tiny: bool = False) -> list[Op]:
        count = 1 if tiny else 20
        solve_sizes = [60] if tiny else _ladder(600, 1400, count)
        merge_sizes = [30] if tiny else _ladder(130, 280, count)
        ops = []
        for n_solve, n_merge in zip(solve_sizes, merge_sizes):
            for kind, n in (("solve_occ2", n_solve), ("solve_occ2_merge", n_merge)):
                n, rows, optimum = gen.occ2_instance(rng, n)
                ops.append(Op(kind, gen.lin2_text(n, rows), n, rows, optimum))
        return ops

    def run(self, pkg, op: Op) -> Answer:
        system = pkg.formats.parse_lin2(op.text)
        if op.kind == "solve_occ2":
            result = pkg.occ2.solve_occ2(system)
            return Answer(result, len(result.certificate))
        return Answer(pkg.occ2.solve_occ2_merge(system), 0)

    def check(self, pkg, op: Op, answer: Answer, counts) -> str | None:
        if op.kind == "solve_occ2_merge":
            if answer.value != op.expect:
                return f"merge value {answer.value} != planted optimum {op.expect}"
            return None
        result = answer.value
        if len(result.assignment) != op.n:
            return f"assignment length {len(result.assignment)} != n={op.n}"
        actual = gen.falsified_weight(op.rows, result.assignment)
        if not result.falsified_weight == actual == op.expect:
            return (
                f"reported {result.falsified_weight}, assignment falsifies "
                f"{actual}, planted optimum {op.expect}"
            )
        return None

    def digest(self, answer: Answer):
        if isinstance(answer.value, int):
            return answer.value
        return (answer.value.falsified_weight, answer.value.assignment)


# ---------------------------------------------------------------------------
# twovar-planted: solve_below_W at budget k (YES) and k-1 (NO)


class TwovarPlanted:
    name = "twovar-planted"

    def build(self, rng: random.Random, pkg, tiny: bool = False) -> list[Op]:
        if tiny:
            specs = [(16, 2, 1)]
        else:
            unit = [(n, 2 + i % 2, 1) for i, n in enumerate(_ladder(40, 72, 10))]
            weighted = [(n, 3 + i % 3, 5) for i, n in enumerate(_ladder(24, 31, 10))]
            specs = [s for pair in zip(unit, weighted) for s in pair]
        ops = []
        for n, k, max_weight in specs:
            n, rows, optimum = gen.twovar_instance(rng, n, 2 * n, k, max_weight)
            text = gen.lin2_text(n, rows)
            ops.append(Op("yes", text, n, rows, optimum))
            ops.append(Op("no", text, n, rows, optimum))
        return ops

    def run(self, pkg, op: Op) -> Answer:
        system = pkg.formats.parse_lin2(op.text)
        budget = op.expect if op.kind == "yes" else op.expect - 1
        result = pkg.twovar.solve_below_W(system, budget)
        return Answer(result, 0 if result is None else len(result.certificate))

    def check(self, pkg, op: Op, answer: Answer, counts) -> str | None:
        result = answer.value
        if op.kind == "no":
            if result is not None:
                return f"budget {op.expect - 1} answered YES below the optimum {op.expect}"
            return None
        if result is None:
            return f"budget {op.expect} answered NO at the planted optimum"
        actual = gen.falsified_weight(op.rows, result.assignment)
        if not result.falsified_weight == actual == op.expect:
            return (
                f"reported {result.falsified_weight}, assignment falsifies "
                f"{actual}, planted optimum {op.expect}"
            )
        return None

    def digest(self, answer: Answer):
        result = answer.value
        return None if result is None else (result.falsified_weight, result.assignment)


# ---------------------------------------------------------------------------
# pipeline-eq3: to_eq3_eq3, emit_lin2, then both assignment maps

# Expanded degree profiles of the random arity <= 3 inputs. They set the
# output size (about 4k to 20k equations), so the seed changes the structure
# but not the amount of work.
PROFILES = (
    (4, 4, 4, 4, 4, 4, 5, 6, 7, 8),
    (4, 4, 4, 4, 5, 5, 6, 6, 7, 9),
    (4, 4, 4, 4, 4, 5, 5, 6, 7, 8, 10),
    (4, 4, 4, 4, 4, 4, 5, 6, 7, 8, 10, 12),
    (4, 4, 4, 4, 4, 5, 6, 6, 7, 8),
)
ODDSET_ELEMENTS = 8
ODDSET_SIZES = (2, 3, 3, 3, 3, 4)
ODDSET_BUDGET = 1


class PipelineEq3:
    name = "pipeline-eq3"

    def build(self, rng: random.Random, pkg, tiny: bool = False) -> list[Op]:
        profiles = [(4, 4, 5, 3)] if tiny else [p for p in PROFILES for _ in range(4)]
        elements, sizes = (4, (2, 3)) if tiny else (ODDSET_ELEMENTS, ODDSET_SIZES)
        ops = []
        for profile in profiles:
            degrees = list(profile)
            rng.shuffle(degrees)
            n, rows = gen.arity3_instance(rng, degrees)
            ops.append(self._op("arity3", rng, n, rows))
            sets = gen.oddset_sets(rng, elements, sizes)
            inst = pkg.gadgets.OddSetInstance(elements, tuple(sets), ODDSET_BUDGET)
            system = pkg.gadgets.oddset_to_lin2(inst).system
            rows = [(e.lhs, e.rhs, e.weight) for e in system.equations]
            ops.append(self._op("oddset", rng, system.n, rows))
        return ops

    @staticmethod
    def _op(kind: str, rng: random.Random, n: int, rows) -> Op:
        assignment = tuple(rng.randint(0, 1) for _ in range(n))
        return Op(kind, gen.lin2_text(n, rows), n, rows, assignment)

    def run(self, pkg, op: Op) -> Answer:
        system = pkg.formats.parse_lin2(op.text)
        reduced, trace = pkg.gadgets.to_eq3_eq3(system)
        text = pkg.formats.emit_lin2(reduced)
        forward = trace.map_assignment_forward(op.expect)
        back = trace.map_assignment_back(forward)
        return Answer((reduced, text, forward, back), len(reduced.equations))

    def check(self, pkg, op: Op, answer: Answer, counts) -> str | None:
        reduced, text, forward, back = answer.value
        out_rows = [(e.lhs, e.rhs, e.weight) for e in reduced.equations]
        ledger = reduced.forced_falsified
        original_cost = gen.falsified_weight(op.rows, op.expect)
        forward_cost = ledger + gen.falsified_weight(out_rows, forward)
        back_cost = gen.falsified_weight(op.rows, back)
        if forward_cost > original_cost:
            return f"forward map cost {forward_cost} > original cost {original_cost}"
        if back_cost > forward_cost:
            return f"back map cost {back_cost} > reduced cost {forward_cost}"
        if any(len(vs) != 3 or w != 1 for vs, _, w in out_rows):
            return "output is not unit-weight arity 3"
        if any(c != 3 for c in gen.expanded_degrees(reduced.n, out_rows)):
            return "output has a variable whose occurrence is not 3"
        if len({vs for vs, _, _ in out_rows}) != len(out_rows):
            return "output has duplicate left-hand sides"
        parsed = pkg.formats.parse_lin2(text)
        if parsed.n != reduced.n or parsed.equations != reduced.equations:
            return "parse_lin2(emit_lin2(out)) changed n or the equations"
        if parsed.forced_falsified != ledger:
            # The forced ledger survives emit_lin2 only as a comment; a known
            # loss that is counted, not failed.
            counts["formats.ledger_lost"] += 1
        return None

    def digest(self, answer: Answer):
        reduced, text, forward, back = answer.value
        return hashlib.sha256(
            text.encode() + bytes(forward) + b"|" + bytes(back)
        ).hexdigest()


WORKLOADS = {w.name: w for w in (Occ2Mixed(), TwovarPlanted(), PipelineEq3())}

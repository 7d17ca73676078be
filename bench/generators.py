"""Seeded instance generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain rows
``(variables, rhs, weight)`` with 0-based variable indices, so the instances
do not depend on the package under test. Generators that claim an optimum
compute it from the construction alone; ``tiny_checks`` compares those claims
with the brute-force oracle on instances of at most 16 variables.
"""

from __future__ import annotations

import itertools
import random


def lin2_text(n: int, rows) -> str:
    """Serialize rows in the ``.lin2`` format (1-based, ascending indices)."""
    lines = [f"p lin2 {n} {len(rows)}"]
    for variables, rhs, weight in rows:
        indices = " ".join(str(v + 1) for v in sorted(variables))
        lines.append(f"{weight} {rhs} {len(variables)} {indices}")
    return "\n".join(lines) + "\n"


def falsified_weight(rows, assignment) -> int:
    """Weight of the rows an assignment falsifies (the benchmark's own evaluator)."""
    total = 0
    for variables, rhs, weight in rows:
        parity = 0
        for v in variables:
            parity ^= assignment[v]
        if parity != rhs:
            total += weight
    return total


def _relabel(rng: random.Random, n: int, rows):
    """Shuffle variable labels and row order so structure is not index-ordered."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(tuple(sorted(perm[v] for v in vs)), rhs, w) for vs, rhs, w in rows]
    rng.shuffle(out)
    return out


def occ2_instance(rng: random.Random, n: int, max_len: int = 30):
    """Disjoint cycles and pendant chains over n variables; every occurrence <= 2.

    A cycle of L two-variable equations sums to "0 = rhs parity", so an odd
    cycle must falsify one equation and costs its minimum weight; an even
    cycle costs 0. A chain has an end variable occurring once and costs 0.
    Component lengths (3..max_len) and kinds follow a fixed schedule, so n
    sets the amount of work; the seed draws rhs bits, weights 1-9, variable
    labels and equation order. Returns (n, rows, optimum).
    """
    rows = []
    optimum = 0
    used = 0
    span = max_len - 2
    for i in itertools.count():
        length = 3 + (i * 11) % span
        kind = i % 4  # cycle, open chain, cycle, chain with a unary head
        needed = length + (kind == 1)
        if used + needed > n:
            break
        vs = list(range(used, used + needed))
        used += needed
        weights = [rng.randint(1, 9) for _ in range(length)]
        rhs = [rng.randint(0, 1) for _ in range(length)]
        if kind % 2 == 0:
            edges = [(vs[j], vs[(j + 1) % length]) for j in range(length)]
            if sum(rhs) % 2:
                optimum += min(weights)
        elif kind == 1:
            edges = [(vs[j], vs[j + 1]) for j in range(length)]
        else:
            # x0 = b, then a path whose last variable occurs once.
            edges = [(vs[0],)] + [(vs[i - 1], vs[i]) for i in range(1, length)]
        rows.extend(zip(edges, rhs, weights))
    return n, _relabel(rng, n, rows), optimum


def twovar_instance(rng: random.Random, n: int, m: int, k: int, max_weight: int):
    """Arity <= 2 system over n variables and m equations with optimum exactly k.

    A planted assignment satisfies every equation except k weight-1 ones.
    Each flipped equation closes its own cycle of 3-6 variables, and the k
    cycles share no variable, so every assignment falsifies at least one
    equation on each cycle (lower bound k) while the planted one falsifies
    exactly k (upper bound k). The remaining equations are consistent with
    the planted assignment: random pairs, and every tenth a unary equation.
    The cycles take the highest variable labels, so in sorted order their
    equations come last and every query works through the whole system
    before the last conflict appears. Returns (n, rows, k).
    """
    if sum(3 + j % 4 for j in range(k)) > n:
        raise ValueError(f"{k} disjoint cycles do not fit in {n} variables")
    planted = [rng.randint(0, 1) for _ in range(n)]
    # Weights cycle through 1..max_weight in random order, so their sum, and
    # with it the expanded edge count, is the same for every seed.
    weights = [1 + j % max_weight for j in range(m)]
    rng.shuffle(weights)
    rows = []
    top = n
    for j in range(k):
        length = 3 + j % 4
        cycle = list(range(top - length, top))
        top -= length
        rng.shuffle(cycle)
        for i in range(length):
            u, v = sorted((cycle[i], cycle[(i + 1) % length]))
            rhs = planted[u] ^ planted[v]
            if i == 0:
                rows.append(((u, v), rhs ^ 1, 1))
            else:
                rows.append(((u, v), rhs, weights[len(rows)]))
    while len(rows) < m:
        if len(rows) % 10 == 9:
            u = rng.randrange(n)
            rows.append(((u,), planted[u], weights[len(rows)]))
            continue
        u, v = sorted(rng.sample(range(n), 2))
        rows.append(((u, v), planted[u] ^ planted[v], weights[len(rows)]))
    rng.shuffle(rows)
    return n, rows, k


def arity3_instance(rng: random.Random, degrees):
    """Arity-1..3 system, weights 1-2, with a prescribed expanded degree profile.

    Variable v occurs exactly ``degrees[v]`` times once every weight-w
    equation is counted w times, which is what the pipeline's degree rules
    see after unit expansion; that profile, not the seed, sets the output
    size. Equations sharing a left-hand side share the rhs. The last two rows
    are an opposing pair ``x_S = 0`` / ``x_S = 1`` on a fresh left-hand side,
    which the pipeline folds into its forced ledger before unit expansion;
    the profile excludes them. No optimum is claimed.
    Returns (n, rows).
    """
    n = len(degrees)
    left = list(degrees)
    rows: dict[tuple[int, ...], list[int]] = {}
    j = 0
    while any(left):
        weight = 2 if j % 4 == 0 and sum(c >= 2 for c in left) >= 3 else 1
        arity = (3, 3, 2, 3, 3, 1)[j % 6]
        candidates = [v for v in range(n) if left[v] >= weight]
        picked = []
        for _ in range(min(arity, len(candidates))):
            v = rng.choices(candidates, weights=[left[c] for c in candidates])[0]
            candidates.remove(v)
            picked.append(v)
        lhs = tuple(sorted(picked))
        row = rows.setdefault(lhs, [rng.randint(0, 1), 0])
        row[1] += weight
        for v in lhs:
            left[v] -= weight
        j += 1
    out = [(lhs, rhs, w) for lhs, (rhs, w) in rows.items()]
    fresh = [
        lhs
        for r in (2, 3, 1)
        for lhs in itertools.combinations(range(n), r)
        if lhs not in rows
    ]
    if fresh:
        lhs = rng.choice(fresh)
        out += [(lhs, 0, 1), (lhs, 1, 1)]
    return n, out


def expanded_degrees(n: int, rows) -> list[int]:
    """Occurrences per variable with every equation counted weight times."""
    counts = [0] * n
    for variables, _, weight in rows:
        for v in variables:
            counts[v] += weight
    return counts


def oddset_sets(rng: random.Random, elements: int, sizes):
    """Distinct sets with the given sizes; element memberships differ by <= 1.

    Which elements sit in which sets is random, but the membership counts,
    and so the degrees the pipeline sees, are fixed by (elements, sizes).
    """
    total = sum(sizes)
    while True:
        stubs = [e for e in range(elements) for _ in range(total // elements)]
        stubs += rng.sample(range(elements), total % elements)
        rng.shuffle(stubs)
        sets, at = [], 0
        for size in sizes:
            sets.append(tuple(sorted(stubs[at : at + size])))
            at += size
        if all(len(set(s)) == len(s) for s in sets) and len(set(sets)) == len(sets):
            return sets


def tiny_checks(seed: int, oracle) -> list[str]:
    """Check the claims of tiny generated instances independently.

    ``oracle(n, rows)`` returns the minimum falsified weight; the occ2 and
    two-variable generators must match it, and the arity-3 generator must
    meet its degree profile. Returns one message per failed claim.
    """
    rng = random.Random(seed)
    problems = []
    for i in range(12):
        n, rows, claimed = occ2_instance(rng, rng.randint(6, 16), max_len=6)
        got = oracle(n, rows)
        if got != claimed:
            problems.append(f"occ2 tiny #{i}: claimed {claimed}, oracle {got}")
    for i in range(12):
        n = rng.randint(12, 16)
        k = rng.randint(1, 3)
        n, rows, claimed = twovar_instance(rng, n, 2 * n, k, 1 + 4 * (i % 2))
        got = oracle(n, rows)
        if got != claimed:
            problems.append(f"twovar tiny #{i}: claimed {claimed}, oracle {got}")
    for i in range(12):
        degrees = [rng.randint(1, 9) for _ in range(rng.randint(6, 12))]
        n, rows = arity3_instance(rng, degrees)
        opposing = rows[-2][0] == rows[-1][0] and rows[-2][1] != rows[-1][1]
        if not opposing or expanded_degrees(n, rows[:-2]) != degrees:
            problems.append(f"arity3 tiny #{i}: degree profile {degrees} not met")
    return problems

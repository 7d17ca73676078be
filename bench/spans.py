"""Per-layer tracing from outside the package.

The tracer replaces public functions of ``maxlin2`` with timing wrappers for
the duration of a traced pass and restores them afterwards. A function is
wrapped wherever the package calls through to it: every loaded ``maxlin2``
module attribute that is the same object as the original is replaced, so
``maxlin2.twovar.edge_bipartization`` and ``maxlin2.gadgets.prune_singletons``
are caught along with the defining modules. Names that no longer exist are
skipped, which keeps the benchmark running when a later change deletes one.

Each span's self time is its duration minus the time of the spans it
encloses. Counters are taken from arguments and results at the same
boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# Trace rule names of the (=3,=3) pipeline, one step counter each.
GADGET_RULES = (
    "normalize",
    "opposing-pairs",
    "unit-expand",
    "degree4",
    "degree5plus",
    "arity-expand",
    "always-satisfied-removal",
    "degree2-triplets",
    "deduplicate",
    "compact",
)

SEARCH_STAT_FIELDS = (
    ("compressions", "bipartize.compressions"),
    ("guesses", "bipartize.guesses"),
    ("flow_augmentations", "bipartize.flow_augmentations"),
)


def _count_bytes_in(counts, args, result):
    counts["formats.bytes_in"] += len(args[0])


def _count_bytes_out(counts, args, result):
    counts["formats.bytes_out"] += len(result)


def _count_prune(counts, args, result):
    counts["occ2.prune_steps"] += len(result[1].steps)


def _count_components(counts, args, result):
    counts["occ2.components"] += len(result.equation_ids)


def _count_answer(counts, args, result):
    counts["twovar.no" if result is None else "twovar.yes"] += 1


def _count_expanded(counts, args, result):
    counts["bipartize.expanded_edges"] += len(result[0].edges)


def _count_pipeline(counts, args, result):
    system, trace = result
    counts["gadgets.in_m"] += len(args[0].equations)
    counts["gadgets.out_n"] += system.n
    counts["gadgets.out_m"] += len(system.equations)
    counts["gadgets.steps"] += len(trace.steps)
    for step in trace.steps:
        if step.rule in GADGET_RULES:
            counts[f"gadgets.rule.{step.rule}"] += 1


# (span name, defining module, attribute path, counter hook)
TARGETS = (
    ("formats.parse_lin2", "formats", "parse_lin2", _count_bytes_in),
    ("formats.emit_lin2", "formats", "emit_lin2", _count_bytes_out),
    ("core.normalize", "core", "normalize", None),
    ("core.evaluate", "core", "evaluate", None),
    ("core.occurrence_counts", "core", "occurrence_counts", None),
    ("baseline.f2_solve", "baseline", "f2_solve", None),
    ("occ2.solve_occ2", "occ2", "solve_occ2", None),
    ("occ2.solve_occ2_merge", "occ2", "solve_occ2_merge", None),
    ("occ2.prune_singletons", "occ2", "prune_singletons", _count_prune),
    ("occ2.split_components", "occ2", "split_components", _count_components),
    ("twovar.solve_below_W", "twovar", "solve_below_W", _count_answer),
    ("twovar.rewrite_zero_rhs", "twovar", "rewrite_zero_rhs", None),
    ("twovar.build_graph", "twovar", "build_graph", None),
    (
        "bipartize.expand_weighted_edges",
        "bipartize",
        "expand_weighted_edges",
        _count_expanded,
    ),
    ("bipartize.edge_bipartization", "bipartize", "edge_bipartization", None),
    ("gadgets.to_eq3_eq3", "gadgets", "to_eq3_eq3", _count_pipeline),
    ("gadgets.map_forward", "gadgets", "ReductionTrace.map_assignment_forward", None),
    ("gadgets.map_back", "gadgets", "ReductionTrace.map_assignment_back", None),
)


class Tracer:
    """Span self times and counters for one traced pass at a time."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.paused = False
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def install(self) -> None:
        """Wrap every target that exists in the loaded package."""
        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "maxlin2" or name.startswith("maxlin2."))
        ]
        for span, module, path, hook in TARGETS:
            owner = sys.modules.get(f"maxlin2.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(span, original, hook)
            sites = [owner] if outer else modules
            for site in sites:
                for name, value in list(vars(site).items()):
                    if value is original:
                        self._patched.append((site, name, original))
                        setattr(site, name, wrapper)

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patched):
            setattr(site, name, original)
        self._patched.clear()

    def _wrap(self, span: str, fn, hook):
        stats_cls = None
        if span == "bipartize.edge_bipartization":
            # Count the compression search through its public stats object
            # when the caller passes none; skipped once that API is gone.
            stats_cls = getattr(sys.modules["maxlin2.bipartize"], "SearchStats", None)
            if "stats" not in inspect.signature(fn).parameters:
                stats_cls = None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stats = None
            if stats_cls is not None and kwargs.get("stats") is None and len(args) < 3:
                stats = kwargs["stats"] = stats_cls()
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.self_s[span] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            self.counts[f"{span}_calls"] += 1
            if hook is not None:
                hook(self.counts, args, result)
            if stats is not None:
                for field, key in SEARCH_STAT_FIELDS:
                    self.counts[key] += getattr(stats, field, 0)
            return result

        return wrapper

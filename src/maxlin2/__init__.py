"""Solvers and cost-preserving reductions for weighted GF(2) equation systems."""

from .baseline import (
    SolveResult,
    brute_force_min_falsified,
    conditional_expectation_assignment,
)
from .bipartize import (
    Bipartition,
    Edge,
    Graph,
    GraphError,
    OddCycle,
    SearchStats,
    brute_force_bipartization,
    edge_bipartization,
    is_bipartite,
)
from .core import (
    CapacityError,
    ContractViolationError,
    DimensionError,
    Equation,
    InstanceClassError,
    InstanceProfile,
    LinSystem,
    MaxLin2Error,
    evaluate,
    expand_unit_weights,
    falsified_indices,
    normalize,
    occurrence_counts,
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
from .gadgets import (
    GadgetError,
    OddSetInstance,
    OddSetReduction,
    ReductionTrace,
    TraceStep,
    deduplicate_equations,
    enforce_degree_exactly3,
    expand_arity_to_3,
    normalize_max_degree3,
    oddset_to_lin2,
    reduce_degree4,
    reduce_degree5plus,
    to_eq3_eq3,
)
from .occ2 import solve_occ2, solve_occ2_merge
from .twovar import solve_below_W

__version__ = "0.1.0"

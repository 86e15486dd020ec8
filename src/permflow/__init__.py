"""Sorting as a continuous contraction flow on the rank polytope.

The package is organized around one picture: a sequence to sort is a
vertex of the polytope whose vertices are all rearrangements of
(1, ..., n), and sorting is the gradient flow x' = v_s - x sliding that
point toward the sorted vertex v_s = (1, ..., n).

- `perms`: permutations, inversions, the hyperplane sum, the size guard
  (no numpy).
- `core`: state vectors, polytope vertices, the disorder measure.
- `flow`: the closed-form flow, its crossing events, time/operation
  estimates.
- `projection`: Euler descent on the pull and its tie blocks.
- `dtree`: optimal comparison trees and the ceil(log2 n!) bound.
- `slicing`: comparisons as half-space constraints, feasible counting,
  instrumented classical sorts.
- `cli`: the `permflow` command.

`perms`, `dtree` and `slicing` load with the package; the names of the
numpy layers `core`, `flow` and `projection` load on first use, so
`permflow slice` and `permflow dtree` start without numpy.
"""

import importlib

from .dtree import (
    BUILD_LIMIT,
    Internal,
    Leaf,
    OptimalTree,
    TreeStats,
    build_optimal,
    info_lower_bound,
    tree_from_dict,
    tree_from_json,
    tree_stats,
    tree_to_dict,
    tree_to_json,
    verify_tree,
)
from .perms import (
    MAX_STEP,
    Permutation,
    SizeLimitError,
    hyperplane_sum,
    inversions,
    log2_factorial,
    reverse_disorder,
)
from .slicing import (
    ALGORITHMS,
    Constraint,
    ConstraintSet,
    DP_LIMIT,
    INSTRUMENT_LIMIT,
    InstrumentedRun,
    TraceStep,
    comparison_count,
    feasible_count,
    instrument,
    is_contradictory,
    isolates_sorted,
    parse_constraints,
)

#: The public names of the numpy layers, by the module that defines them,
#: imported on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(
        (
            "DisorderReport",
            "StateVector",
            "as_state",
            "disorder_squared",
            "in_hyperplane",
            "sorted_vertex",
            "vertex_of",
        ),
        "core",
    ),
    **dict.fromkeys(
        (
            "CrossingEvent",
            "FlowSample",
            "FlowTrace",
            "SortingEstimate",
            "crossing_events",
            "crossing_time",
            "discrete_estimate",
            "disorder_at",
            "estimate_sorting",
            "flow_state",
            "lemma_lower_bound",
            "sample_trace",
            "time_to_epsilon",
        ),
        "flow",
    ),
    **dict.fromkeys(
        (
            "ProjectedSample",
            "ProjectedTrace",
            "STEP_LIMIT",
            "active_ties",
            "integrate_projected",
            "project_velocity",
        ),
        "projection",
    ),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BUILD_LIMIT",
    "Constraint",
    "ConstraintSet",
    "CrossingEvent",
    "DP_LIMIT",
    "DisorderReport",
    "FlowSample",
    "FlowTrace",
    "INSTRUMENT_LIMIT",
    "InstrumentedRun",
    "Internal",
    "Leaf",
    "MAX_STEP",
    "OptimalTree",
    "Permutation",
    "ProjectedSample",
    "ProjectedTrace",
    "STEP_LIMIT",
    "SizeLimitError",
    "SortingEstimate",
    "StateVector",
    "TraceStep",
    "TreeStats",
    "as_state",
    "active_ties",
    "build_optimal",
    "comparison_count",
    "crossing_events",
    "crossing_time",
    "discrete_estimate",
    "disorder_at",
    "disorder_squared",
    "estimate_sorting",
    "feasible_count",
    "flow_state",
    "hyperplane_sum",
    "in_hyperplane",
    "info_lower_bound",
    "instrument",
    "integrate_projected",
    "inversions",
    "is_contradictory",
    "isolates_sorted",
    "lemma_lower_bound",
    "log2_factorial",
    "parse_constraints",
    "project_velocity",
    "reverse_disorder",
    "sample_trace",
    "sorted_vertex",
    "time_to_epsilon",
    "tree_from_dict",
    "tree_from_json",
    "tree_stats",
    "tree_to_dict",
    "tree_to_json",
    "verify_tree",
    "vertex_of",
    "__version__",
]

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

`perms`, `dtree` and `slicing` load with the package and export what
their `__all__` lists; the names of the numpy layers `core`, `flow` and
`projection`, listed once in `_LAZY`, load on first use, so
`permflow slice` and `permflow dtree` start without numpy. `__all__` is
the union of the two.
"""

import importlib

from . import dtree, perms, slicing
from .dtree import *  # noqa: F403
from .perms import *  # noqa: F403
from .slicing import *  # noqa: F403

#: The public names of the numpy layers, by the module that defines them,
#: imported on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(
        (
            "StateVector",
            "as_state",
            "disorder_squared",
            "in_hyperplane",
            "vertex_of",
        ),
        "core",
    ),
    **dict.fromkeys(
        (
            "CrossingSchedule",
            "FlowSample",
            "FlowTrace",
            "SortingEstimate",
            "crossing_events",
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
            "UPDATE_LIMIT",
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
    *sorted({*perms.__all__, *dtree.__all__, *slicing.__all__, *_LAZY}),
    "__version__",
]

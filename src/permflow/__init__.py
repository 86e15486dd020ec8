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
- `projection`: Euler descent on the pull.
- `dtree`: optimal comparison trees and the ceil(log2 n!) bound.
- `slicing`: comparisons as half-space constraints, feasible counting,
  instrumented classical sorts.
- `cli`: the `permflow` command.

Each public name is listed once, in the `__all__` of the module that
defines it. `perms`, `dtree` and `slicing` load with the package. The
first use of any other public name, or of `__all__`, imports the numpy
layers `core`, `flow` and `projection` (PEP 562), so `permflow slice` and
`permflow dtree` start without numpy. `__all__` is the sorted union of
the six modules' lists, then `__version__`.
"""

import importlib

from . import dtree, perms, slicing
from .dtree import *  # noqa: F403
from .perms import *  # noqa: F403
from .slicing import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name):
    # probes such as `__wrapped__` must not load numpy
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layers = [importlib.import_module(f".{m}", __name__) for m in ("core", "flow", "projection")]
    if name == "__all__":
        names = {n for m in (perms, dtree, slicing, *layers) for n in m.__all__}
        value = [*sorted(names), "__version__"]
    else:
        home = next((m for m in layers if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value

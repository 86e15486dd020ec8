"""Sorting as a continuous contraction flow on the rank polytope.

The package is organized around one picture: a sequence to sort is a
vertex of the polytope whose vertices are all rearrangements of
(1, ..., n), and sorting is the gradient flow x' = v_s - x sliding that
point toward the sorted vertex v_s = (1, ..., n).

- `perms`: permutations, inversions, the hyperplane sum, the size guard
  (no numpy, no `dataclasses`).
- `core`: state vectors, polytope vertices, the disorder measure.
- `flow`: the closed-form flow, its crossing events, time/operation
  estimates.
- `projection`: Euler descent on the pull.
- `dtree`: optimal comparison trees and the ceil(log2 n!) bound.
- `slicing`: comparisons as half-space constraints, feasible counting,
  instrumented classical sorts.
- `cli`: the `permflow` command.

Each public name is listed once, in the `__all__` of the module that
defines it. Importing the package loads none of the layers: the first use
of a public name (PEP 562) imports the layers in the order `perms`,
`dtree`, `slicing`, `core`, `flow`, `projection` until one lists it, so a
name of the three numpy-free layers, or a layer itself (`from permflow
import dtree`), loads no numpy. Those three also define their records
without `dataclasses` (which imports `inspect`), so they start without
either. `__all__` is the sorted union of the six modules' lists, then
`__version__`.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("perms", "dtree", "slicing", "core", "flow", "projection")


def __getattr__(name):
    # probes such as `__wrapped__` must not load a layer
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    layers = (importlib.import_module(f".{m}", __name__) for m in _LAYERS)
    if name == "__all__":
        value = [*sorted({n for m in layers for n in m.__all__}), "__version__"]
    else:
        home = next((m for m in layers if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value

"""Euler descent on the pull toward the sorted vertex, which keeps every tie.

The package integrates one field, the pull g = v_s - x. Where coordinates
of the state are equal (neighbours in value order within 1e-9 * n form a
tie block), a descent that keeps the ties may move them apart only in
their target order, lower index lower. The pull already does: at a true
tie x_i = x_j with i < j,

    g_j - g_i = (j - i) - (x_j - x_i) = j - i > 0,

so projecting it onto the order-keeping velocities of each block, by
pool-adjacent-violators in index order, would return it unchanged, and no
projection runs. `integrate_projected` integrates the pull as it is.
An explicit Euler step x <- x + h*(v_s - x) maps x - v_s to
(1 - h)*(x - v_s), so it contracts V = 0.5*||x - v_s||^2 by exactly
(1 - h)^2 <= exp(-2h), and after steps h_1..h_k the state is
v_s + (x0 - v_s)*prod(1 - h_i).
Each recorded state is computed from the start by that product
(`core._contract`, which also builds the exact flow's states from
exp(-t)), so no step is run one by one. Step k ends at k*step and the
last exactly at t_end; this module alone maps a requested sample time to
its state on that grid. A recorded sample of the returned `core.Trace` is
a time and a state: its disorder, potential and count of tie blocks are
computed, and the state sorted, only when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import StateVector, Trace, as_state, disorder_squared
from .core import _contract, _require_hyperplane
from .perms import MAX_STEP, SizeLimitError, require_finite_positive

__all__ = [
    "ProjectedSample",
    "COORDINATE_LIMIT",
    "integrate_projected",
]

_SAMPLE_WORDS = 54  # a sample's own objects: about 430 bytes (Python 3.11)
#: Most float64 words one integration records, samples x (n + 54): about
#: 320 MB, or two samples at n = 20,000,000. A run costs what it records.
COORDINATE_LIMIT = 2 * (20_000_000 + _SAMPLE_WORDS)


def _step_count(t_end: float, step: float) -> int:
    """Number of Euler steps to t_end: step k ends at k * step, the last at t_end.

    A final shorter step is added unless the last full one lands within
    1e-12 of t_end. Validates t_end (finite, > 0), step (0 < step <=
    MAX_STEP) and t_end / step, which must be finite (ValueError).
    """
    require_finite_positive("t_end", t_end)
    if not (0 < step <= MAX_STEP):
        raise ValueError(f"step must be in (0, {MAX_STEP}], got {step}")
    quotient = t_end / step
    if math.isinf(quotient):
        raise ValueError(f"t_end {t_end:g} over step {step:g} overflows a double")
    full_steps = math.floor(quotient + 1e-12)
    lands = full_steps > 0 and full_steps * step >= t_end - 1e-12
    return full_steps + (not lands)


def _grid_index(t: float, t_end: float, step: float, steps: int) -> int:
    """Index k of the Euler state at sample time t: the state after k steps.

    A time within 1e-9 * t of t_end is the last state; any other time must
    lie within 1e-9 * t of its nearest multiple of step (ValueError).
    """
    if not (0 <= t < math.inf):
        raise ValueError(f"sample times must be finite and >= 0, got {t}")
    if abs(t - t_end) <= 1e-9 * t:
        return steps
    k = round(t / step) if t < t_end else steps
    near = t_end if k == steps else k * step
    if abs(near - t) > 1e-9 * t:
        raise ValueError(
            f"sample time {t:g} is off the Euler grid (nearest step time {near:g}, "
            f"step {step:g}); choose sample times at t_end or on multiples of the step"
        )
    return k


def _group(coords: np.ndarray) -> np.ndarray:
    """Which neighbour gaps of the sorted coords join a tie: those of at most 1e-9 * n."""
    values = np.sort(coords)
    return values[1:] - values[:-1] <= 1e-9 * coords.size


@dataclass(frozen=True)
class ProjectedSample:
    t: float
    state: StateVector

    @property
    def disorder(self) -> float:
        """d0 = ||x - v_s||^2, `disorder_squared` of the state."""
        return disorder_squared(self.state)

    @property
    def potential(self) -> float:
        """V = 0.5*||x - v_s||^2."""
        return 0.5 * self.disorder

    @property
    def active_block_count(self) -> int:
        """Tie blocks of two or more coordinates: runs of joining gaps.

        Neighbours in value order within 1e-9 * n join one block, so a
        block's spread may exceed that through chaining.
        """
        joined = _group(self.state.coords)
        # each run of k joining gaps holds k - 1 adjacent joining pairs
        return int(np.count_nonzero(joined)) - int(np.count_nonzero(joined[1:] & joined[:-1]))


def integrate_projected(
    x0: StateVector | Sequence[float],
    t_end: float,
    step: float = MAX_STEP,
    times: Iterable[float] | None = None,
) -> Trace:
    """Explicit Euler on the pull toward the sorted vertex, in closed form.

    Step k ends at k * step and the last, of length h, exactly at t_end.
    The state after k full steps is v_s + (x0 - v_s)*(1 - step)^k and the
    last takes (1 - h) for one (1 - step) (module docstring); each factor
    is exp(k*log1p(-step)), a few ulp off however many steps it stands
    for, and the state at t = 0 is x0 itself. The pull keeps every tie's
    target order, so projecting it onto the tie blocks would return it
    unchanged. Requires a start on the hyperplane (`in_hyperplane`, so
    also finite; a contraction toward v_s keeps the coordinate sum),
    finite 0 < t_end, 0 < step <= MAX_STEP and a finite t_end / step, so
    each step contracts the potential by exactly (1 - h)^2 <= exp(-2h).

    A sample records its grid time and state; its disorder, potential and
    tie-block count are computed when read, so no state is sorted.
    times=None records every state, from t = 0 to t_end. Otherwise each of
    the strictly increasing `times` records a state bit for bit as
    times=None does: the last if the time is within 1e-9 * t of t_end,
    else the one at the nearest multiple of `step`, which must lie within
    1e-9 * t of it; no two times may take one state (ValueError). More
    than COORDINATE_LIMIT words, samples x (n + 54), raise SizeLimitError.
    Every check runs before the first state is built, and a run costs
    O(samples x n) whatever t_end is.
    """
    x0 = as_state(x0)
    _require_hyperplane(x0)
    steps = _step_count(t_end, step)
    times = None if times is None else list(times)
    count = steps + 1 if times is None else len(times)
    if count * (x0.n + _SAMPLE_WORDS) > COORDINATE_LIMIT:
        raise SizeLimitError(
            f"projected traces are limited to {COORDINATE_LIMIT} words "
            f"(samples x (n + {_SAMPLE_WORDS})), got {count} samples at n = {x0.n}"
        )
    if times is None:
        wanted = range(steps + 1)
    else:
        wanted = [_grid_index(float(t), t_end, step, steps) for t in times]
        for s, t, j, k in zip(times, times[1:], wanted, wanted[1:]):
            if t <= s:
                raise ValueError("sample times must be strictly increasing")
            if k <= j:
                raise ValueError(f"sample times {float(s)!r} and {float(t)!r} take one grid state")
    # the last step is h = t_end - (steps - 1) * step, so that it ends at t_end
    per_step = math.log1p(-step)
    last = math.log1p(-(t_end - (steps - 1) * step))
    factors = [math.exp(k * per_step if k < steps else (k - 1) * per_step + last) for k in wanted]
    states = _contract(x0, factors)
    return Trace(
        samples=tuple(
            ProjectedSample(t=t_end if k == steps else k * step, state=state)
            for k, state in zip(wanted, states)
        )
    )

"""Order-preserving descent: the pull toward the sorted vertex keeps every tie.

When several coordinates of the state are equal (neighbours in value
order within 1e-9 * n) they form a tie block. A velocity whose
components would immediately re-invert a block's internal target order
can be replaced, inside the block, by its closest non-decreasing
surrogate: pool-adjacent-violators (PAV) averaging in index order. The
projection p of a velocity g onto that cone satisfies <g, p> = ||p||^2,
so the potential V = 0.5*||x - v_s||^2 never increases along the
projected field (`project_velocity`).

Along the pull g = v_s - x itself the projection has nothing to do. At a
true tie x_i = x_j with i < j,

    g_j - g_i = (j - i) - (x_j - x_i) = j - i > 0,

so the pull already keeps the tie's target order and PAV returns it
unchanged. `integrate_projected` therefore integrates the pull as it is.
An explicit Euler step x <- x + h*(v_s - x) maps x - v_s to
(1 - h)*(x - v_s), so it contracts V by exactly (1 - h)^2 <= exp(-2h),
and after steps h_1..h_k the state is v_s + (x0 - v_s)*prod(1 - h_i).
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
from typing import Sequence

import numpy as np

from .core import StateVector, Trace, as_state, disorder_squared
from .core import _contract, _hyperplane_bound, _require_hyperplane
from .perms import MAX_STEP, SizeLimitError, require_finite_positive

__all__ = [
    "ProjectedSample",
    "COORDINATE_LIMIT",
    "active_ties",
    "project_velocity",
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


def _group(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort coords once: value order, and which neighbour gaps join a tie.

    A gap of at most 1e-9 * n joins its two neighbours into one block; the
    stable sort puts equal values in index order.
    """
    order = np.argsort(coords, kind="stable")
    values = coords[order]
    return order, values[1:] - values[:-1] <= 1e-9 * coords.size


def active_ties(x: StateVector | Sequence[float]) -> tuple[tuple[int, ...], ...]:
    """Partition of the indices 1..n into groups whose values chain within 1e-9 * n.

    Consecutive values in sorted order that differ by at most 1e-9 * n
    land in the same block (transitively), so a block's spread can exceed
    that only through chaining. Blocks come in ascending value order, each
    listing its members in ascending index order (the order of their pull
    targets); blocks of one index are kept so the partition covers 1..n.
    """
    x = as_state(x)
    order, joined = _group(x.coords)
    return tuple(
        tuple(np.sort(b + 1).tolist()) for b in np.split(order, np.flatnonzero(~joined) + 1)
    )


def _pool_adjacent_violators(v: np.ndarray) -> np.ndarray:
    """Non-decreasing least-squares fit to v (unit weights)."""
    # Stack of (mean, count) pools; merge backward while out of order.
    means: list[float] = []
    counts: list[int] = []
    for value in v:
        means.append(float(value))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            c = c1 + c2
            means.append((m1 * c1 + m2 * c2) / c)
            counts.append(c)
    out = np.empty(len(v))
    pos = 0
    for m, c in zip(means, counts):
        out[pos : pos + c] = m
        pos += c
    return out


def _require_tangent(g: np.ndarray) -> None:
    """Raise ValueError unless |sum(g)| is within the hyperplane bound of `core`.

    g = v_s - x for some x on the hyperplane is tangent to it, so sum(g)
    may be off 0 by what `in_hyperplane` allows sum(x) to be off
    n(n+1)/2: max(1e-9, n(n+1)/2 * 2**-41).
    """
    if abs(float(g.sum())) > _hyperplane_bound(g.size):
        raise ValueError("velocity must sum to 0 (tangent to the hyperplane)")


def project_velocity(
    x: StateVector | Sequence[float],
    g: np.ndarray | Sequence[float],
    blocks: Sequence[Sequence[int]] | None = None,
) -> np.ndarray:
    """Closest velocity to g that respects the tie blocks of x.

    `blocks` is a partition of 1..n as `active_ties` returns it, and
    defaults to `active_ties(x)`. Within each block (members in the order
    listed, ascending index) the result is the nearest non-decreasing
    vector to g's restriction, by pool-adjacent-violators; components
    outside any tie pass through unchanged, and block sums are preserved.
    The input must be tangent to the hyperplane: |sum(g)| at most
    max(1e-9, n(n+1)/2 * 2**-41), the bound of `in_hyperplane`.
    Projecting is idempotent and the output p satisfies <g, p> = ||p||^2.
    """
    x = as_state(x)
    g = np.asarray(g, dtype=float)
    if g.shape != (x.n,):
        raise ValueError(f"velocity must have shape ({x.n},), got {g.shape}")
    _require_tangent(g)
    if blocks is None:
        blocks = active_ties(x)
    p = g.copy()
    for b in blocks:
        if len(b) > 1:
            idx = np.asarray(b) - 1
            p[idx] = _pool_adjacent_violators(g[idx])
    return p


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
        """Tie blocks of `active_ties` with two or more members: runs of joining gaps."""
        joined = _group(self.state.coords)[1]
        # each run of k joining gaps holds k - 1 adjacent joining pairs
        return int(np.count_nonzero(joined)) - int(np.count_nonzero(joined[1:] & joined[:-1]))


def integrate_projected(
    x0: StateVector | Sequence[float],
    t_end: float,
    step: float = MAX_STEP,
    times: Sequence[float] | None = None,
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

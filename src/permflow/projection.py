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
Each sample is built from the start by `core._trace`, from the log of
that product, as the exact flow's are, and holds the disorder
d0 * prod(1 - h_i)^2; no step is run one by one. This module keeps the
Euler factors and the grid alone: step k ends at k*step, the last at t_end.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .core import StateVector, Trace, as_state
from .core import _require_hyperplane, _require_samples, _sample_times, _trace
from .perms import MAX_STEP, require_finite_positive

__all__ = ["integrate_projected"]


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

    A time (>= 0, `core._sample_times`) within 1e-9 * t of t_end is the
    last state; any other must lie within 1e-9 * t of its nearest multiple
    of step (ValueError). The grid ends at t_end, so t = inf, whose
    tolerance would be inf, lies near no grid time.
    """
    k = round(t / step) if t < t_end and abs(t - t_end) > 1e-9 * t else steps
    near = t_end if k == steps else k * step
    if not abs(near - t) <= 1e-9 * t < math.inf:
        raise ValueError(
            f"sample time {t:g} is off the Euler grid (nearest step time {near:g}, "
            f"step {step:g}); choose sample times at t_end or on multiples of the step"
        )
    return k


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
    for, and the state at t = 0 is x0 itself. Requires a start on the
    hyperplane (`in_hyperplane`; a contraction toward v_s keeps the
    coordinate sum), finite 0 < t_end, 0 < step <= MAX_STEP and a finite
    t_end / step, so each step contracts the potential by exactly
    (1 - h)^2 <= exp(-2h).

    times=None records every state, from t = 0 to t_end. Otherwise each of
    the `times`, read as `sample_trace` reads them, records a state bit for
    bit as times=None does: the last if the time is within 1e-9 * t of
    t_end, else the one at the nearest multiple of `step`, which must lie
    within 1e-9 * t of it; no two times may take one state (ValueError).
    Every check, COORDINATE_LIMIT's too, runs before the first factor is
    taken, and a run costs O(samples x n) whatever t_end is.
    """
    x0 = as_state(x0)
    _require_hyperplane(x0)
    steps = _step_count(t_end, step)
    if times is None:
        _require_samples(steps + 1, x0.n)
        wanted = range(steps + 1)
    else:
        times = _sample_times(times, x0.n)
        wanted = [_grid_index(t, t_end, step, steps) for t in times]
        for s, t, j, k in zip(times, times[1:], wanted, wanted[1:]):
            if k <= j:
                raise ValueError(f"sample times {s!r} and {t!r} take one grid state")
    # the last step is h = t_end - (steps - 1) * step, so that it ends at t_end
    per_step = math.log1p(-step)
    last = math.log1p(-(t_end - (steps - 1) * step))
    logs = [k * per_step if k < steps else (k - 1) * per_step + last for k in wanted]
    return _trace(x0, [t_end if k == steps else k * step for k in wanted], logs)

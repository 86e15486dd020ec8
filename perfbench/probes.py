"""Fixed-size kernel probes: the sizes of the Baseline table in ROADMAP.md.

Each probe calls one library function on a fixed input (permutations are the
``random:1`` start of the CLI) and reports the median wall time of ``REPS``
calls as ``kernel.<function>.n<N>_s``. Each result is checked against the
benchmark's own answer.
"""

from __future__ import annotations

import math
import statistics
import time

from workloads import count_inversions, lcg_shuffle

REPS = 3


def _probes():
    """(metric name, call, check of the call's result) for every probe."""
    from permflow.core import Permutation, inversions, vertex_of
    from permflow.dtree import build_optimal
    from permflow.flow import crossing_events
    from permflow.projection import integrate_projected
    from permflow.slicing import ConstraintSet, feasible_count, instrument

    out = []
    for n in (100, 200, 400):
        perm = lcg_shuffle(n, 1)
        x0, want = vertex_of(perm), count_inversions(perm)
        out.append((f"kernel.crossing_events.n{n}_s", lambda x0=x0: crossing_events(x0),
                    lambda r, want=want: len(r) == want))
    for n in (400, 2000):
        perm = lcg_shuffle(n, 1)
        p, want = Permutation.of(perm), count_inversions(perm)
        out.append((f"kernel.inversions.n{n}_s", lambda p=p: inversions(p),
                    lambda r, want=want: r == want))
    for n in (14, 16, 18):
        s = ConstraintSet.empty(n)
        out.append((f"kernel.feasible_count.n{n}_s", lambda s=s: feasible_count(s),
                    lambda r, n=n: r == math.factorial(n)))
    p = Permutation.of(lcg_shuffle(10, 1))
    out.append(("kernel.instrument.n10_s", lambda: instrument("merge", p),
                lambda r: r.trace[0].feasible_before == math.factorial(10) and r.final_feasible == 1))
    for n in (50, 200):
        x0 = vertex_of(lcg_shuffle(n, 1))
        out.append((f"kernel.integrate_projected.n{n}_s",
                    lambda x0=x0: integrate_projected(x0, 5.0, step=0.01),
                    lambda r: len(r.samples) == 501))
    out.append(("kernel.build_optimal.n4_s", lambda: build_optimal(4),
                lambda r: r.stats.leaf_count == 24 and r.stats.height == 5))
    return out


def run_probes() -> tuple[dict[str, float], list[str]]:
    """Median seconds per probe, and the names of probes whose result was wrong."""
    times, wrong = {}, []
    for name, call, ok in _probes():
        laps = []
        for _ in range(REPS):
            start = time.perf_counter()
            result = call()
            laps.append(time.perf_counter() - start)
        if not ok(result):
            wrong.append(name)
        times[name] = statistics.median(laps)
    return times, wrong

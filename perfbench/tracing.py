"""In-memory spans around the public functions of each permflow layer.

The tracer replaces module attributes with timing wrappers for the length of
a traced pass, at the attributes the callers reach them through
(``permflow.cli.crossing_events``, ``permflow.slicing.feasible_count``, ...),
and restores them afterwards. Nothing in the package changes. A span is
``(name, start, end, parent, request)``: ``parent`` indexes the span that was
open when it started, and all spans of one request share ``request``. Work
counts are taken from the same calls' arguments and results.
"""

from __future__ import annotations

import collections
import functools
import json
import time

import numpy as np

# Layers whose self time is reported; "cli" is the time of cli.main spans
# not covered by a wrapped call.
LAYERS = ("cli", "core", "flow", "projection", "slicing", "dtree")


def _n_of(x) -> int:
    return x.n if hasattr(x, "n") else len(x)


def _count_events(counts, args, kwargs, out):
    n = _n_of(args[0] if args else kwargs["x0"])
    counts["flow.events_emitted"] += len(out)
    counts["flow.pairs_examined"] += n * (n - 1) // 2


def _count_euler(counts, args, kwargs, out):
    counts["projection.euler_steps"] += len(out.samples) - 1


def _count_useful(counts, args, kwargs, out):
    g = args[1] if len(args) > 1 else kwargs["g"]
    counts["projection.project_velocity.useful"] += not np.array_equal(out, np.asarray(g, dtype=float))


def _count_masks(counts, args, kwargs, out):
    counts["slicing.dp_masks"] += 2 ** _n_of(args[0] if args else kwargs["s"])


def _count_ledger(counts, args, kwargs, out):
    counts["slicing.comparisons"] += len(out.trace)
    # one recount per constraint the run added; it paid off if the count fell
    counts["slicing.recounts"] += len(out.constraints.constraints)
    counts["slicing.recounts_lowering"] += sum(
        1 for step in out.trace if step.feasible_after < step.feasible_before
    )


def _count_leaves(counts, args, kwargs, out):
    counts["dtree.leaves"] += out.stats.leaf_count


def _count_output(counts, args, kwargs, out):
    if isinstance(out, str):
        counts["cli.output_bytes"] += len(out.encode())


def _targets():
    """(module, attribute, span name, counter) for every wrapped call site."""
    import permflow.cli as cli
    import permflow.flow as flow
    import permflow.projection as projection
    import permflow.slicing as slicing

    return (
        (cli, "crossing_events", "flow.crossing_events", _count_events),
        (cli, "estimate_sorting", "flow.estimate_sorting", None),
        (cli, "sample_trace", "flow.sample_trace", None),
        (flow, "inversions", "core.inversions", None),
        (slicing, "brute_force_sort", "core.brute_force_sort", None),
        (cli, "integrate_projected", "projection.integrate_projected", _count_euler),
        (projection, "integrate_projected", "projection.integrate_projected", _count_euler),
        (projection, "active_ties", "projection.active_ties", None),
        (projection, "project_velocity", "projection.project_velocity", _count_useful),
        (cli, "feasible_count", "slicing.feasible_count", _count_masks),
        (slicing, "feasible_count", "slicing.feasible_count", _count_masks),
        (cli, "isolates_sorted", "slicing.isolates_sorted", None),
        (cli, "instrument", "slicing.instrument", _count_ledger),
        (cli, "build_optimal", "dtree.build_optimal", _count_leaves),
    )


class Tracer:
    """Records spans and work counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._request = -1
        self._saved: list[tuple] = []
        #: wrapped call sites the package no longer has
        self.missing: list[str] = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._request)
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for module, attr, name, counter in _targets():
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module.__name__}.{attr}" not in self.missing:
                    self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def remove(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def request(self, request_id: int, name: str, fn, *args):
        """Run one request under a root span named ``name``, counting its output bytes."""
        self._request = request_id
        return self._wrap(fn, name, _count_output)(*args)

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded, for ``requests`` requests."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for k, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                covered[parent] += durations[k]
        calls = collections.Counter()
        busy = collections.Counter()
        layer_self = collections.Counter()
        instrument_self = 0.0
        for k, (name, *_rest) in enumerate(self.spans):
            own = durations[k] - covered[k]
            calls[name] += 1
            busy[name] += durations[k]
            layer_self[name.split(".")[0]] += own
            if name == "slicing.instrument":
                instrument_self += own

        c = self.counts

        def share(part, whole):
            return part / whole if whole else 0.0

        out = {}
        for name in (
            "flow.crossing_events",
            "core.inversions",
            "core.brute_force_sort",
            "projection.integrate_projected",
            "projection.active_ties",
            "slicing.feasible_count",
            "dtree.build_optimal",
        ):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
        for name in ("flow.estimate_sorting", "flow.sample_trace", "slicing.isolates_sorted"):
            out[f"{name}.busy_s"] = busy[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out.update(
            {
                "flow.events_emitted": c["flow.events_emitted"],
                "flow.pairs_examined": c["flow.pairs_examined"],
                "flow.event_yield": share(c["flow.events_emitted"], c["flow.pairs_examined"]),
                "projection.euler_steps": c["projection.euler_steps"],
                "projection.project_velocity.calls": calls["projection.project_velocity"],
                "projection.project_velocity.useful_frac": share(
                    c["projection.project_velocity.useful"], calls["projection.project_velocity"]
                ),
                "slicing.dp_masks": c["slicing.dp_masks"],
                "slicing.feasible_count.calls_per_request": share(
                    calls["slicing.feasible_count"], requests
                ),
                "slicing.instrument.calls": calls["slicing.instrument"],
                "slicing.instrument.self_s": instrument_self,
                "slicing.comparisons": c["slicing.comparisons"],
                "slicing.recount_yield": share(c["slicing.recounts_lowering"], c["slicing.recounts"]),
                "dtree.leaves": c["dtree.leaves"],
                "cli.output_bytes": c["cli.output_bytes"],
            }
        )
        return out

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON array per span, times from the first start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": ["name", "start_s", "end_s", "parent", "request"]}) + "\n")
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, request]) + "\n")

"""Command-line front end: traces, crossing schedules, tree bounds, slicing.

Every subcommand emits deterministic bytes for identical invocations:
reals are serialized with K = 6 significant digits unless --precision K
(1..17) says otherwise. A CSV or text cell is format(x, ".Kg"); a JSON
real is json.dumps(float(format(x, ".Kg"))), the shortest repr of the
rounded double. No environment variable changes a subcommand's output
(argparse does wrap --help to the terminal width, so COLUMNS changes
help text). Rows are ordered canonically, and `--start random:SEED`
derives its permutation from a fixed linear congruential generator —
s <- (1664525*s + 1013904223) mod 2^32 — driving a backward swap pass,
so any implementation of the same recipe reproduces the same bytes.

Exit codes: 0 success, 2 usage, parse or write errors, 3 deliberate size limits.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from typing import Optional, Sequence

from .perms import (
    MAX_STEP,
    Permutation,
    SizeLimitError,
    require_finite_positive,
    reverse_disorder,
)

__all__ = ["main"]


def _on_first_call(module: str, name: str):
    """A stand-in for `module.name` here: the module loads on the first call.

    Every layer function a handler calls is bound this way, so a command
    imports only the layers it calls. The name is an attribute of this
    module, and a test or a tracer patches it here: a patch of the layer's
    own attribute misses a binding already resolved. The first call
    rebinds the name to the function itself unless the name was patched
    meanwhile, so the handlers then call the patch.
    """

    def call(*args, **kwargs):
        fn = getattr(importlib.import_module(module, __package__), name)
        if globals()[name] is call:
            globals()[name] = fn
        return fn(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


vertex_of = _on_first_call(".core", "vertex_of")
crossing_events = _on_first_call(".flow", "crossing_events")
estimate_sorting = _on_first_call(".flow", "estimate_sorting")
sample_trace = _on_first_call(".flow", "sample_trace")
integrate_projected = _on_first_call(".projection", "integrate_projected")
build_optimal = _on_first_call(".dtree", "build_optimal")
info_lower_bound = _on_first_call(".dtree", "info_lower_bound")
tree_to_json = _on_first_call(".dtree", "tree_to_json")
feasible_count = _on_first_call(".slicing", "feasible_count")
instrument = _on_first_call(".slicing", "instrument")
isolates_sorted = _on_first_call(".slicing", "isolates_sorted")
parse_constraints = _on_first_call(".slicing", "parse_constraints")

DEFAULT_PRECISION = 6
#: Most rows `flow trace --samples` or a `bench` growth table may hold. A
#: trace row costs about 20 us and 1 KB before its n coordinates (n = 3:
#: 10,000 rows took 0.3-0.4 s and 39 MB peak RSS in a fresh process on a
#: 2-vCPU VM). 10,000 bench rows took 0.12 s and 24 MB (JSON) or 0.1 s and
#: 20 MB (CSV); with the limit lifted, `--n-min 2 --n-max 100001` took
#: 0.6-0.9 s and 87 MB (JSON), and an older writer needed 13.6 s and 925 MB
#: to print the 115 MB of `--n-max 1000000`.
SAMPLE_LIMIT = 10_000
#: Most coordinates (samples x n) `flow trace` may print. SAMPLE_LIMIT
#: bounds rows, not their width: n = 200 x 10,000 samples took 1.4-2.1 s
#: and 88 MB peak RSS (JSON), and n = 200,000 x 11 samples 2.4-2.8 s and
#: 112 MB, where n = 2000 x 500 samples, at this limit, took 0.7-1.0 s and
#: 55 MB (2-vCPU VM). It bounds the n printed start coordinates of `flow
#: events` too, from n alone before the start is built: `--n 1000000
#: --start sorted` took 1.0-1.2 s and 151 MB peak RSS in a fresh process
#: on that VM, 0.5 s of it in the schedule's value-order pass.
CELL_LIMIT = 1_000_000
#: Most reals one `flow trace` fill formats at once. A trace of more
#: cells fills one row template per block of rows, so its floats and JSON
#: tokens (about 80 bytes a real) stay near 5 MB, and n <= 200 with 21
#: samples or fewer is a single block.
_FILL_BLOCK = 1 << 16


# --- start-spec parsing ------------------------------------------------------


def _seeded_shuffle(n: int, seed: int) -> Permutation:
    """The documented reproducible shuffle behind `--start random:SEED`.

    State update s <- (1664525*s + 1013904223) mod 2^32 starting from the
    seed; positions are visited from the last down to the second, each
    swapped with position s mod (i+1). Pure integer arithmetic, so every
    implementation of the recipe agrees byte-for-byte.
    """
    ranks = list(range(1, n + 1))
    s = seed % 2**32
    for i in range(n - 1, 0, -1):
        s = (1664525 * s + 1013904223) % 2**32
        j = s % (i + 1)
        ranks[i], ranks[j] = ranks[j], ranks[i]
    return Permutation.of(ranks)


def _parse_start(spec: str, n: int) -> Permutation:
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    if spec == "sorted":
        return Permutation.identity(n)
    if spec == "reverse":
        return Permutation.reverse(n)
    if spec.startswith("random:"):
        try:
            seed = int(spec[len("random:") :])
        except ValueError:
            raise ValueError(f"bad seed in start spec {spec!r}") from None
        return _seeded_shuffle(n, seed)
    try:
        ranks = [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise ValueError(
            f"start spec {spec!r} is none of: sorted, reverse, random:SEED, "
            "or a comma-separated permutation"
        ) from None
    if len(ranks) != n:
        raise ValueError(f"start list has {len(ranks)} entries but --n is {n}")
    return Permutation.of(ranks)


def _parse_perm_list(text: str) -> Permutation:
    try:
        ranks = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"--input must be a comma-separated permutation, got {text!r}") from None
    return Permutation.of(ranks)


# --- formatting --------------------------------------------------------------


def _round(x: float, spec: str) -> float:
    """x cut to the significant digits of `spec`: the real a JSON payload carries.

    Small payloads encoded by `_dumps` round each float field with this;
    long rows take their reals from `_json_reals`.
    """
    return float(f"{x:{spec}}")


def _json_reals(xs, spec: str) -> list[str]:
    """JSON tokens for the reals xs: each is json.dumps(float(format(x, spec))).

    One %-fill writes every s = format(x, spec), comma-terminated, and a
    split cuts the text into tokens. s already is the JSON token when it
    has at most 15 significant digits and is written as repr writes it:
    with a point and no exponent, or with a two-digit negative exponent.
    Up to 15 digits round-trip through a double, so they are the shortest
    repr of float(s). The filled text is tested once for the common case,
    no "e" and one "." per real; only when that fails is each token tested.
    Every other s goes through one json.dumps: an integer lacks repr's
    ".0", repr moves to an exponent only from 1e16 on, 16 or 17 digits
    need not be the shortest, and a three-digit negative exponent may
    reach the subnormals, where fewer digits can round-trip.
    """
    filled = (f"%{spec}," * len(xs)) % tuple(xs)
    texts = filled.split(",")
    texts.pop()  # the empty text after the last comma
    if int(spec[1:-1]) > 15:
        redo = range(len(texts))
    elif "e" not in filled and filled.count(".") == len(texts):
        return texts
    else:
        redo = [k for k, s in enumerate(texts) if ("e" in s or "." not in s) and s[-4:-2] != "e-"]
    if redo:
        # no token contains ", ", so one encode of the list splits back into tokens
        tokens = _dumps([float(texts[k]) for k in redo])[1:-1].split(", ")
        for k, token in zip(redo, tokens):
            texts[k] = token
    return texts


def _dumps(payload) -> str:
    """One JSON encode of a freshly built payload.

    Every payload is a new tree of dicts, lists, strings, ints and floats,
    so it holds no cycle and the encoder's cycle check is skipped.
    """
    return json.dumps(payload, check_circular=False)


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _write(text: str, output: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers ------------------------------------------------------
#
# A handler reaches a layer only through the names bound above, so `slice`,
# `dtree` and `bench` start without numpy and `bench` loads no layer.


def _cmd_flow_events(args, spec: str) -> str:
    if args.n > CELL_LIMIT:
        raise SizeLimitError(
            f"crossing schedules are limited to {CELL_LIMIT} coordinates, got n = {args.n}"
        )
    start = _parse_start(args.start, args.n)
    est = estimate_sorting(start, epsilon=args.epsilon, c=args.c)
    schedule = crossing_events(vertex_of(start))
    count = len(schedule)
    if args.format == "json":
        # JSON does not print the meeting values. Each event fills one
        # template, and %d writes what json.dumps writes for an int. The
        # spec in the template writes format(t, spec), which is the JSON
        # token when `_json_reals` would keep it: precision at most 15, and
        # no "e" and one "." per event in the body (the template text has
        # neither). Otherwise the t cells are refilled with its tokens.
        cells = [None] * (3 * count)
        cells[0::3] = schedule.i.tolist()
        cells[1::3] = schedule.j.tolist()
        cells[2::3] = schedule.t.tolist()
        del schedule  # not held through the encode: 8 MB at EVENT_LIMIT
        events = ""
        if int(spec[1:-1]) <= 15:
            cells = tuple(cells)  # the fill holds the tuple of floats alone
            events = ", ".join(['{"i": %d, "j": %d, "t": %' + spec + "}"] * count) % cells
        if "e" in events or events.count(".") != count:
            del events
            cells = list(cells)
            cells[2::3] = _json_reals(cells[2::3], spec)
            cells = tuple(cells)  # the fill holds the tuple of tokens alone
            events = ", ".join(['{"i": %d, "j": %d, "t": %s}'] * count) % cells
        head = _dumps({"n": start.n, "start": list(start.ranks), "d0": _round(est.d0, spec)})
        tail = _dumps(
            {
                "t_eps": _round(est.continuous_time, spec),
                "estimate": _round(est.discrete_estimate, spec),
                "lemma_lb": _round(est.discrete_estimate, spec),
            }
        )
        return f'{head[:-1]}, "events": [{events}], {tail[1:]}'
    header = "\n".join(
        [
            f"# n={start.n} start={','.join(map(str, start.ranks))}",
            f"# d0={est.d0:{spec}} crossings={count} t_eps={est.continuous_time:{spec}} "
            f"estimate={est.discrete_estimate:{spec}} "
            f"estimate_ceil={math.ceil(est.discrete_estimate)} "
            f"lemma_lb={est.discrete_estimate:{spec}}",
            "i,j,t,value",
        ]
    )
    cells = [None] * (4 * count)
    cells[0::4] = schedule.i.tolist()
    cells[1::4] = schedule.j.tolist()
    cells[2::4] = schedule.t.tolist()
    cells[3::4] = schedule.meeting_values().tolist()
    del schedule  # not held through the format: only `cells` is needed
    # %-formatting with the spec writes what format(x, spec) writes
    return header + "".join([f"\n%d,%d,%{spec},%{spec}"] * count) % tuple(cells)


def _cmd_flow_trace(args, spec: str) -> str:
    if args.samples < 2:
        raise ValueError(f"--samples must be >= 2, got {args.samples}")
    if args.samples > SAMPLE_LIMIT:
        raise SizeLimitError(
            f"traces are limited to {SAMPLE_LIMIT} samples, got {args.samples}"
        )
    cells = args.samples * args.n
    if cells > CELL_LIMIT:
        raise SizeLimitError(
            f"traces are limited to {CELL_LIMIT} coordinates (samples x n), got {cells}"
        )
    require_finite_positive("--t-end", args.t_end)
    # sample k sits at t_end * k / (samples - 1); its largest product must be finite
    if math.isinf(args.t_end * (args.samples - 1)):
        raise ValueError(
            f"--t-end {args.t_end:g} times {args.samples - 1} sample intervals "
            "overflows a double"
        )
    start = _parse_start(args.start, args.n)
    x0 = vertex_of(start)
    wanted = [args.t_end * k / (args.samples - 1) for k in range(args.samples)]
    if args.projected:
        trace = integrate_projected(x0, args.t_end, step=args.step, times=wanted)
    else:
        trace = sample_trace(x0, wanted)
    rows = [(s.t, s.state.coords, s.disorder) for s in trace.samples]
    # A block of rows fills one row template with each row's t, n
    # coordinates and disorder. It holds about _FILL_BLOCK reals (at least
    # one row), so the floats and tokens held at once stay bounded.
    width = start.n + 2
    step = max(1, _FILL_BLOCK // width)
    blocks = (
        [v for t, x, d in rows[r0 : r0 + step] for v in (t, *x.tolist(), d)]
        for r0 in range(0, len(rows), step)
    )
    if args.format == "json":
        head = _dumps({"n": start.n, "start": list(start.ranks), "projected": args.projected})
        row = '{"t": %s, "x": [' + ", ".join(["%s"] * start.n) + '], "disorder": %s}'
        body = ", ".join(
            ", ".join([row] * (len(reals) // width)) % tuple(_json_reals(reals, spec))
            for reals in blocks
        )
        return f'{head[:-1]}, "rows": [{body}]}}'
    header = "t," + ",".join(f"x{k}" for k in range(1, start.n + 1)) + ",disorder"
    # %-formatting with the spec writes what format(x, spec) writes
    row = "\n" + ",".join([f"%{spec}"] * width)
    return header + "".join("".join([row] * (len(reals) // width)) % tuple(reals) for reals in blocks)


def _cmd_dtree(args, spec: str) -> str:
    bound = info_lower_bound(args.n)
    built = build_optimal(args.n)
    if args.emit_tree:
        _write(tree_to_json(built.root), args.emit_tree)
    stats = built.stats
    if args.format == "json":
        return _dumps(
            {
                "n": args.n,
                "info_bound": bound,
                "height": stats.height,
                "leaf_count": stats.leaf_count,
            }
        )
    return "n,info_bound,height,leaf_count\n" + (
        f"{args.n},{bound},{stats.height},{stats.leaf_count}"
    )


def _cmd_slice(args, spec: str) -> str:
    if args.instrument is not None:
        if args.input is None:
            raise ValueError("--instrument requires --input LIST")
        start = _parse_perm_list(args.input)
        if start.n != args.n:
            raise ValueError(f"--input has {start.n} entries but --n is {args.n}")
        run = instrument(args.instrument, start)
        iso = isolates_sorted(run.constraints)
        if args.format == "json":
            return _dumps(
                {
                    "algorithm": run.algorithm,
                    "n": start.n,
                    "input": list(start.ranks),
                    "trace": [
                        {
                            "step": k,
                            "lo": s.constraint.lo,
                            "hi": s.constraint.hi,
                            "feasible_before": s.feasible_before,
                            "feasible_after": s.feasible_after,
                            "bits": _round(s.bits, spec),
                        }
                        for k, s in enumerate(run.trace, start=1)
                    ],
                    "comparisons": run.comparisons,
                    "total_bits": _round(run.total_bits, spec),
                    "max_bits": _round(run.max_bits, spec),
                    "halving_fraction": _round(run.halving_fraction, spec),
                    "final_count": run.final_feasible,
                    "isolates_sorted": iso,
                }
            )
        lines = [
            "# algorithm={} input={} comparisons={} total_bits={} max_bits={} "
            "halving_fraction={} final_count={} isolates_sorted={}".format(
                run.algorithm,
                ",".join(map(str, start.ranks)),
                run.comparisons,
                format(run.total_bits, spec),
                format(run.max_bits, spec),
                format(run.halving_fraction, spec),
                run.final_feasible,
                _bool(iso),
            ),
            "step,lo,hi,feasible_before,feasible_after,bits",
        ]
        for k, s in enumerate(run.trace, start=1):
            lines.append(
                f"{k},{s.constraint.lo},{s.constraint.hi},"
                f"{s.feasible_before},{s.feasible_after},{s.bits:{spec}}"
            )
        return "\n".join(lines)

    if args.input is not None:
        raise ValueError("--input only applies to --instrument")
    constraints = parse_constraints(args.constraints or "", args.n)
    count = feasible_count(constraints)
    iso = isolates_sorted(constraints)
    contra = count == 0  # the count is exact: 0 exactly when a cycle is present
    if args.format == "json":
        return _dumps(
            {
                "n": args.n,
                "constraints": [[c.lo, c.hi] for c in constraints.constraints],
                "count": count,
                "isolates_sorted": iso,
                "contradictory": contra,
            }
        )
    return "n,count,isolates_sorted,contradictory\n" + (
        f"{args.n},{count},{_bool(iso)},{_bool(contra)}"
    )


def _cmd_report(args, spec: str) -> str:
    start = Permutation.reverse(3)
    t = crossing_events(vertex_of(start)).t
    est = estimate_sorting(start)
    fields = [
        ("d0", est.d0),
        ("t1", float(t[0])),
        ("crossings", t.size),
        ("info_bound", info_lower_bound(3)),
        ("t_total", est.continuous_time),
        ("dt", 1.0 / 3.0),
        ("estimate", est.discrete_estimate),
        ("estimate_ceiling", math.ceil(est.discrete_estimate)),
        ("lemma_lb", est.discrete_estimate),
    ]
    shown = {k: format(v, spec) if isinstance(v, float) else v for k, v in fields}
    ln2 = [format(k * math.log(2), spec) for k in (1, 2, 3)]
    deviations = [
        "staged boundary times ln 2, 2 ln 2, 3 ln 2 ({}, {}, {}) are mutually "
        "inconsistent with the quoted total 1.5 ln 2 = {t_total}; the single closed-form "
        "flow has all three pairs meeting at once at t = {t1}, and {t_total} is its "
        "epsilon = 1 stopping time rather than a sum of stage times.".format(*ln2, **shown),
        "the operation count t/dt with t = {t_total} and dt = {dt} evaluates to {estimate}; "
        "equality with the integer minimum info_bound = {info_bound} holds only after "
        "rounding down, so the unrounded value is reported with its ceiling "
        "{estimate_ceiling}.".format(**shown),
    ]
    if args.format == "json":
        return _dumps(
            {
                "n": 3,
                "start": list(start.ranks),
                **{k: _round(v, spec) if isinstance(v, float) else v for k, v in fields},
                "deviations": deviations,
            }
        )
    if args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(
            [
                ("key", "value"),
                ("n", 3),
                ("start", ",".join(map(str, start.ranks))),
                *shown.items(),
                ("deviation_1", deviations[0]),
                ("deviation_2", deviations[1]),
            ]
        )
        return buf.getvalue().rstrip("\n")
    return "\n".join(
        [
            "worked example: start = {} (n = 3)".format(",".join(map(str, start.ranks))),
            *(f"{k} = {v}" for k, v in shown.items()),
            *(f"NOTED-DEVIATION: {d}" for d in deviations),
        ]
    )


def _cmd_bench(args, spec: str) -> str:
    if not (2 <= args.n_min <= args.n_max <= 10**6):
        raise ValueError(
            f"need 2 <= n-min <= n-max <= 10^6, got {args.n_min}..{args.n_max}"
        )
    if args.step < 1:
        raise ValueError(f"--step must be >= 1, got {args.step}")
    count = len(range(args.n_min, args.n_max + 1, args.step))
    if count > SAMPLE_LIMIT:
        raise SizeLimitError(
            f"growth tables are limited to {SAMPLE_LIMIT} rows, got {count}"
        )
    cells = []
    for n in range(args.n_min, args.n_max + 1, args.step):
        d0 = reverse_disorder(n)
        # time_to_epsilon(d0, 1.0), bit for bit: d0 >= 2 exceeds epsilon^2 = 1
        t = 0.5 * math.log(d0)
        # estimate_sorting's count t / (c/n) at c = 1, bit for bit (n * t
        # differs from it in the last ulp at some n)
        n_t = t / (1 / n)
        asymptote = 1.5 * n * math.log(n)
        cells += (n, d0, t, n_t, asymptote, n_t / asymptote)
    if args.format == "json":
        # each row fills one template; %d writes what json.dumps writes for an int
        for col in range(2, 6):
            cells[col::6] = _json_reals(cells[col::6], spec)
        row = '{"n": %d, "d0": %d, "t": %s, "n_t": %s, "asymptote": %s, "ratio": %s}'
        rows = ", ".join([row] * count) % tuple(cells)
        return f'{{"rows": [{rows}]}}'
    # %-formatting with the spec writes what format(x, spec) writes
    row = f"\n%d,%d,%{spec},%{spec},%{spec},%{spec}"
    return "n,d0,t,n_t,asymptote,ratio" + "".join([row] * count) % tuple(cells)


# --- parser ------------------------------------------------------------------
#
# Building the parsers of every command took 1.2-1.9 ms of a 1.3-2.5 ms
# `slice` request (2-vCPU VM, Python 3.11), so a call builds only the
# commands its argv names.


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0], help="output format")
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")
    parser.add_argument(
        "--precision",
        type=int,
        default=DEFAULT_PRECISION,
        help=f"significant digits for reals (default {DEFAULT_PRECISION})",
    )


def _events_options(events: argparse.ArgumentParser) -> None:
    _add_common(events, ("json", "csv"))
    events.add_argument("--n", type=int, required=True)
    events.add_argument(
        "--start",
        default="reverse",
        help="sorted | reverse | random:SEED | comma list (default reverse)",
    )
    events.add_argument("--epsilon", type=float, default=1.0)
    events.add_argument("--c", type=float, default=1.0)
    events.set_defaults(handler=_cmd_flow_events)


def _trace_options(trace: argparse.ArgumentParser) -> None:
    _add_common(trace, ("json", "csv"))
    trace.add_argument("--n", type=int, required=True)
    trace.add_argument("--start", default="reverse")
    trace.add_argument("--samples", type=int, default=11)
    trace.add_argument("--t-end", type=float, required=True)
    trace.add_argument(
        "--projected",
        action="store_true",
        help="explicit Euler steps on the pull instead of the closed form",
    )
    trace.add_argument(
        "--step",
        type=float,
        default=MAX_STEP,
        help=f"Euler step for --projected (0 < step <= {MAX_STEP})",
    )
    trace.set_defaults(handler=_cmd_flow_trace)


def _dtree_options(dtree: argparse.ArgumentParser) -> None:
    _add_common(dtree, ("json", "csv"))
    dtree.add_argument("--n", type=int, required=True)
    dtree.add_argument("--emit-tree", default=None, help="also write the tree JSON here")
    dtree.set_defaults(handler=_cmd_dtree)


def _slice_options(slc: argparse.ArgumentParser) -> None:
    from .slicing import ALGORITHMS

    _add_common(slc, ("json", "csv"))
    slc.add_argument("--n", type=int, required=True)
    group = slc.add_mutually_exclusive_group(required=True)
    group.add_argument("--constraints", default=None, help='e.g. "1<2,2<3" (may be empty)')
    group.add_argument("--instrument", choices=ALGORITHMS, default=None)
    slc.add_argument("--input", default=None, help="comma-separated permutation for --instrument")
    slc.set_defaults(handler=_cmd_slice)


def _report_options(report: argparse.ArgumentParser) -> None:
    # report reads most naturally as plain text; data commands default to JSON
    _add_common(report, ("text", "json", "csv"))
    report.set_defaults(handler=_cmd_report)


def _bench_options(bench: argparse.ArgumentParser) -> None:
    _add_common(bench, ("json", "csv"))
    bench.add_argument("--n-min", type=int, required=True)
    bench.add_argument("--n-max", type=int, required=True)
    bench.add_argument("--step", type=int, default=1, help="stride through n")
    bench.set_defaults(handler=_cmd_bench)


#: Each command by name: its help and its body. A body is the table of its
#: subcommands, or the function that adds a leaf's options, the common ones
#: with its formats first, and attaches its handler.
_COMMANDS = {
    "flow": (
        "closed-form flow: events and traces",
        {
            "events": ("crossing schedule", _events_options),
            "trace": ("sampled trajectory", _trace_options),
        },
    ),
    "dtree": ("optimal comparison trees", _dtree_options),
    "slice": ("constraint counting and instrumented sorts", _slice_options),
    "report": ("n=3 worked example, annotated", _report_options),
    "bench": ("lower-bound growth table", _bench_options),
}


def _add_commands(
    parser: argparse.ArgumentParser, commands: dict, dest: str, argv: Sequence[str]
) -> None:
    """Declare every command of one level; build the body of the one argv names.

    argparse hands the rest of argv to the first positional token of a
    level, and no option of a level with subcommands takes a value, so the
    first token that is a command here is the only one argparse can enter.
    Every command keeps its name and help, so this level's help, choices
    and errors are those of the whole tree. When argv names no command here
    (help, a typo, nothing at all), every body is built.
    """
    sub = parser.add_subparsers(dest=dest, required=True)
    named = next((k for k, token in enumerate(argv) if token in commands), None)
    for name, (help_text, body) in commands.items():
        command = sub.add_parser(name, help=help_text)
        if named is not None and argv[named] != name:
            continue
        if isinstance(body, dict):
            rest = argv[named + 1 :] if named is not None else ()
            _add_commands(command, body, f"{name}_command", rest)
        else:
            body(command)


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for argv: every command declared, bodies only on argv's path."""
    parser = argparse.ArgumentParser(
        prog="permflow",
        description="Sorting as contraction flow: traces, crossings, tree bounds, slicing.",
    )
    _add_commands(parser, _COMMANDS, "command", argv)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        if not (1 <= args.precision <= 17):
            raise ValueError(f"precision must be in 1..17, got {args.precision}")
        _write(args.handler(args, f".{args.precision}g"), args.output)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded request streams and independent output checks for the four workloads.

A workload's request list is ``BLOCKS`` blocks. Each block holds one request
of every size class the workload mixes, in seeded order, so any whole number
of blocks has the same size profile whatever the seed; only the permutations,
constraint sets and small parameters change with it. A timed run repeats the
first few blocks, at least 100 requests, in passes of a few seconds each.

Within a block the requests fall into cost bands that sit at least about 1.5x
apart: 40 % cheap, 20 % in a middle band, 20 % above it and the costliest
20 % in a top band. The median then lies in the middle of one band and the
90th percentile in the middle of the top band, instead of in a gap between
two sizes. There, a few requests slowed by the machine would move it a lot.

A request is plain JSON data, either ``{"argv": [...]}`` for one
``permflow.cli.main`` call, or ``{"call": "integrate_projected", ...}`` where
the CLI cannot express the input. The list is built from the seed argument
alone.

Every check works from the generated request and the program's output. None
calls permflow to compute the expected answer.
"""

from __future__ import annotations

import json
import math
import random

#: Blocks in one generated request list: enough for the longest traced pass.
BLOCKS = 16

ALGORITHMS = ("insertion", "merge", "quick", "heap")
EULER_STEP = 0.01  # the CLI's default --step for flow trace --projected

# Output reals carry 6 significant digits (the CLI default), library results
# are unrounded floats.
CLI_REL_TOL = 1e-5
LIB_REL_TOL = 1e-8


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's own answer."""


def lcg_shuffle(n: int, seed: int) -> list[int]:
    """The permutation behind ``--start random:SEED``, from its documented recipe."""
    ranks = list(range(1, n + 1))
    s = seed % 2**32
    for i in range(n - 1, 0, -1):
        s = (1664525 * s + 1013904223) % 2**32
        j = s % (i + 1)
        ranks[i], ranks[j] = ranks[j], ranks[i]
    return ranks


def inversion_pairs(perm: list[int]) -> list[tuple[int, int]]:
    """1-based position pairs i < j with perm[i] > perm[j]."""
    n = len(perm)
    return [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if perm[i] > perm[j]
    ]


def count_inversions(perm: list[int]) -> int:
    """Number of inversion pairs, without building them."""
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def _disorder(perm) -> float:
    return float(sum((x - k) ** 2 for k, x in enumerate(perm, start=1)))


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _start_arg(rng: random.Random, n: int) -> tuple[str, list[int]]:
    """Half the starts go through ``random:SEED``, half as explicit lists."""
    if rng.random() < 0.5:
        seed = rng.randrange(2**32)
        return f"random:{seed}", lcg_shuffle(n, seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return ",".join(map(str, perm)), perm


# --- schedule -----------------------------------------------------------------

# Bands: n = 24, 36, traces and growth tables | 48 x3 | 60, 78, 96 | 120 x3
SCHEDULE_EVENT_SIZES = (24, 36, 48, 48, 48, 60, 78, 96, 120, 120, 120)
SCHEDULE_TRACE_SIZES = (120, 200)
SCHEDULE_GROWTH = ((2000, "csv"), (800, "json"))  # (rows, format)


def _schedule_block(rng: random.Random) -> list[dict]:
    block = []
    for n in SCHEDULE_EVENT_SIZES:
        start, perm = _start_arg(rng, n)
        eps = rng.choice((0.5, 1.0, 2.0))
        argv = ["flow", "events", "--n", str(n), "--start", start, "--epsilon", str(eps)]
        block.append({"check": "events", "argv": argv, "perm": perm, "epsilon": eps})
    for n in SCHEDULE_TRACE_SIZES:
        start, perm = _start_arg(rng, n)
        t_end = rng.choice((1.0, 2.0, 3.0))
        samples = rng.choice((11, 21))
        argv = ["flow", "trace", "--n", str(n), "--start", start,
                "--t-end", str(t_end), "--samples", str(samples)]
        block.append({"check": "trace", "argv": argv, "perm": perm,
                      "t_end": t_end, "samples": samples})
    for rows, fmt in SCHEDULE_GROWTH:
        argv = ["bench", "--n-min", "2", "--n-max", str(rows + 1), "--format", fmt]
        block.append({"check": "growth", "argv": argv, "n_max": rows + 1, "format": fmt})
    rng.shuffle(block)
    return block


def _check_events(req: dict, out: str) -> None:
    data = json.loads(out)
    perm = req["perm"]
    _require(data["start"] == perm, "start echo differs from the generated permutation")
    pairs = inversion_pairs(perm)
    events = data["events"]
    _require(len(events) == len(pairs), f"{len(events)} events for {len(pairs)} inversions")
    _require(sorted((e["i"], e["j"]) for e in events) == pairs, "event pairs are not the inversions")
    times = [e["t"] for e in events]
    _require(all(a <= b for a, b in zip(times, times[1:])), "event times decrease")
    for e in events:
        i, j = e["i"], e["j"]
        want = math.log((perm[i - 1] - perm[j - 1] + j - i) / (j - i))
        _require(_close(e["t"], want, CLI_REL_TOL), f"event {i},{j} at t={e['t']}, want {want}")
    d0 = _disorder(perm)
    eps = req["epsilon"]
    want = max(0.0, 0.5 * math.log(d0 / eps**2)) if d0 > 0 else 0.0
    _require(_close(data["t_eps"], want, CLI_REL_TOL), f"t_eps {data['t_eps']}, want {want}")


def _check_trace(req: dict, out: str) -> None:
    data = json.loads(out)
    perm, t_end, samples = req["perm"], req["t_end"], req["samples"]
    rows = data["rows"]
    _require(len(rows) == samples, f"{len(rows)} rows, want {samples}")
    d0 = _disorder(perm)
    for k, row in enumerate(rows):
        t = t_end * k / (samples - 1)
        decay = math.exp(-t)
        _require(_close(row["t"], t, CLI_REL_TOL), f"row {k} at t={row['t']}, want {t}")
        _require(_close(row["disorder"], d0 * decay * decay, CLI_REL_TOL), f"row {k} disorder")
        want = [q + (p - q) * decay for q, p in enumerate(perm, start=1)]
        _require(all(_close(g, w, CLI_REL_TOL) for g, w in zip(row["x"], want)), f"row {k} state")


def _check_growth(req: dict, out: str) -> None:
    if req["format"] == "json":
        rows = json.loads(out)["rows"]
    else:
        lines = out.splitlines()
        _require(lines[0] == "n,d0,t,n_t,asymptote,ratio", "growth CSV header")
        keys = lines[0].split(",")
        rows = [dict(zip(keys, map(float, line.split(",")))) for line in lines[1:]]
    _require([r["n"] for r in rows] == list(range(2, req["n_max"] + 1)), "growth rows")
    for r in rows:
        n = r["n"]
        d0 = n * (n * n - 1) // 3
        t = 0.5 * math.log(d0)
        asym = 1.5 * n * math.log(n)
        _require(r["d0"] == d0, f"d0 at n={n}")
        for key, want in (("t", t), ("n_t", n * t), ("asymptote", asym), ("ratio", n * t / asym)):
            _require(_close(r[key], want, CLI_REL_TOL), f"{key} at n={n}")


# --- descent ------------------------------------------------------------------

# (n, t_end), by band: cheap | middle | upper | top
DESCENT_VERTEX = (
    (20, 0.4), (20, 0.8), (80, 0.4), (40, 0.8),
    (40, 1.6), (60, 1.2), (100, 0.8),
    (120, 1.2), (150, 1.0), (200, 0.8),
    (120, 2.0), (150, 1.8), (200, 1.4),
)
DESCENT_TIED = (30, 0.4, 0.005)  # (n, t_end, step)
DESCENT_BOUNDARY = (80, 0.4, 0.01)


def _euler_factor(t_end: float, step: float) -> float:
    """prod(1 - h_k) over the steps the documented schedule takes to t_end."""
    full = int(math.floor(t_end / step + 1e-12))
    factor = (1.0 - step) ** full
    rest = t_end - full * step
    if rest > 1e-12:
        factor *= 1.0 - rest
    return factor


def _tied_start(rng: random.Random, n: int, max_block: int) -> tuple[list[float], int]:
    """Average runs of consecutive ranks of a random vertex: a tied point of P_n."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    mean_of = {}
    ties = 0
    r = 1
    while r <= n:
        size = min(rng.randint(1, max_block), n - r + 1)
        group = range(r, r + size)
        for v in group:
            mean_of[v] = sum(group) / size
        ties += size > 1
        r += size
    return [mean_of[v] for v in perm], ties


def _boundary_start(rng: random.Random, n: int) -> tuple[list[float], int]:
    """Average the lowest half of the ranks: a point on a facet of P_n."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    half = n // 2
    low = (half + 1) / 2
    return [low if v <= half else float(v) for v in perm], 1


def _descent_block(rng: random.Random) -> list[dict]:
    block = []
    for n, t_end in DESCENT_VERTEX:
        start, perm = _start_arg(rng, n)
        samples = rng.choice((6, 11))
        argv = ["flow", "trace", "--projected", "--n", str(n), "--start", start,
                "--t-end", str(t_end), "--samples", str(samples)]
        block.append({"check": "projected", "argv": argv, "perm": perm,
                      "t_end": t_end, "samples": samples})
    n, t_end, step = DESCENT_TIED
    x0, ties = _tied_start(rng, n, 4)
    block.append({"check": "descent_lib", "call": "integrate_projected",
                  "x0": x0, "t_end": t_end, "step": step, "ties": ties})
    n, t_end, step = DESCENT_BOUNDARY
    x0, ties = _boundary_start(rng, n)
    block.append({"check": "descent_lib", "call": "integrate_projected",
                  "x0": x0, "t_end": t_end, "step": step, "ties": ties})
    rng.shuffle(block)
    return block


def _check_projected(req: dict, out: str) -> None:
    data = json.loads(out)
    perm, t_end, samples = req["perm"], req["t_end"], req["samples"]
    rows = data["rows"]
    _require(data["start"] == perm, "start echo differs from the generated permutation")
    _require(len(rows) == samples, f"{len(rows)} rows, want {samples}")
    wanted = [t_end * k / (samples - 1) for k in range(samples)]
    _require(all(_close(r["t"], t, CLI_REL_TOL) for r, t in zip(rows, wanted)), "row times")
    disorder = [r["disorder"] for r in rows]
    _require(all(b <= a for a, b in zip(disorder, disorder[1:])), "disorder increases")
    factor = _euler_factor(t_end, EULER_STEP)
    want = [q + (p - q) * factor for q, p in enumerate(perm, start=1)]
    _require(all(_close(g, w, CLI_REL_TOL) for g, w in zip(rows[-1]["x"], want)),
             "last row is not v_s + (x0 - v_s) * prod(1 - h)")


def _check_descent_lib(req: dict, trace) -> None:
    x0, t_end, step = req["x0"], req["t_end"], req["step"]
    samples = trace.samples
    _require([float(v) for v in samples[0].state.coords] == x0, "first sample is not the start")
    _require(samples[0].active_block_count == req["ties"], "tie blocks at the start")
    _require(samples[-1].t == t_end, "last sample is not at t_end")
    potentials = [s.potential for s in samples]
    _require(all(b <= a for a, b in zip(potentials, potentials[1:])), "potential increases")
    factor = _euler_factor(t_end, step)
    want = [q + (p - q) * factor for q, p in enumerate(x0, start=1)]
    got = [float(v) for v in samples[-1].state.coords]
    _require(all(_close(g, w, LIB_REL_TOL) for g, w in zip(got, want)),
             "final state is not v_s + (x0 - v_s) * prod(1 - h)")


# --- count --------------------------------------------------------------------

# (n, k, up): k disjoint pairs. "up" pairs all point from the lower label to
# the higher one, which makes isolates_sorted count a second time. By band:
# middle | upper | top; chains, the forest and the cycles are the cheap band.
# A request costs about 3 us per reachable mask, 3^k * 2^(n - 2k) per count.
COUNT_PAIRS = (
    (13, 2, True), (14, 3, False), (14, 2, False),
    (14, 2, True), (16, 4, False), (15, 4, True),
    (15, 2, True), (16, 2, False), (15, 1, True),
)
# (n, chain lengths): disjoint chains drawn from a hidden order.
COUNT_CHAINS = ((13, (4, 4, 3, 2)), (16, (6, 5, 3, 2)), (14, (14,)))
COUNT_FOREST_N = 12
COUNT_CYCLES = ((14, 5), (16, 6))  # (n, cycle length)


def _constraints_arg(pairs: list[tuple[int, int]]) -> str:
    return ",".join(f"{lo}<{hi}" for lo, hi in pairs)


def _disjoint_pairs(rng: random.Random, n: int, k: int, up: bool) -> list[tuple[int, int]]:
    labels = rng.sample(range(1, n + 1), 2 * k)
    pairs = [tuple(sorted(labels[2 * m : 2 * m + 2])) for m in range(k)]
    if not up:
        # one pair points down, so the count runs once per request
        pairs = [(hi, lo) if m == 0 or rng.random() < 0.5 else (lo, hi)
                 for m, (lo, hi) in enumerate(pairs)]
    return pairs


def _chains(order: list[int], lengths) -> list[list[int]]:
    out, pos = [], 0
    for size in lengths:
        out.append(order[pos : pos + size])
        pos += size
    return out


def _count_request(n: int, pairs: list[tuple[int, int]], count: int, cycle: bool = False) -> dict:
    argv = ["slice", "--n", str(n), "--constraints", _constraints_arg(pairs)]
    return {"check": "count", "argv": argv, "pairs": [list(p) for p in pairs],
            "count": count, "contradictory": cycle}


def _count_block(rng: random.Random) -> list[dict]:
    block = []
    for n, k, up in COUNT_PAIRS:
        block.append(_count_request(n, _disjoint_pairs(rng, n, k, up), math.factorial(n) // 2**k))
    for n, lengths in COUNT_CHAINS:
        order = rng.sample(range(1, n + 1), n)
        pairs = [(c[m], c[m + 1]) for c in _chains(order, lengths) for m in range(len(c) - 1)]
        rng.shuffle(pairs)
        count = math.factorial(n)
        for size in lengths:
            count //= math.factorial(size)
        block.append(_count_request(n, pairs, count))
    # A random forest over a hidden order: each node's parent ranks below it,
    # and the count is n! / prod(subtree sizes).
    n = COUNT_FOREST_N
    order = rng.sample(range(1, n + 1), n)
    parent = {order[0]: None}
    for m in range(1, n):
        parent[order[m]] = None if rng.random() < 0.2 else order[rng.randrange(m)]
    subtree = dict.fromkeys(order, 1)
    for v in reversed(order):
        if parent[v] is not None:
            subtree[parent[v]] += subtree[v]
    count = math.factorial(n)
    for size in subtree.values():
        count //= size
    pairs = [(parent[v], v) for v in order if parent[v] is not None]
    rng.shuffle(pairs)
    block.append(_count_request(n, pairs, count))
    for n, length in COUNT_CYCLES:
        ring = rng.sample(range(1, n + 1), length)
        pairs = [(ring[m], ring[(m + 1) % length]) for m in range(length)]
        rng.shuffle(pairs)
        block.append(_count_request(n, pairs, 0, cycle=True))
    rng.shuffle(block)
    return block


def _check_count(req: dict, out: str) -> None:
    data = json.loads(out)
    pairs = req["pairs"]
    _require(data["constraints"] == pairs, "constraint echo differs")
    _require(data["count"] == req["count"], f"count {data['count']}, want {req['count']}")
    _require(data["contradictory"] is req["contradictory"], "contradictory flag")
    sorted_only = req["count"] == 1 and all(lo < hi for lo, hi in pairs)
    _require(data["isolates_sorted"] is sorted_only, "isolates_sorted flag")


# --- ledger -------------------------------------------------------------------

# One instrumented sort per entry, taking the algorithms in turn from a
# seeded offset. With the tree request the bands are n = 5..7 and the tree |
# 9 x4 | 10 x4 | 8 x4.
LEDGER_SIZES = (5, 5, 6, 6, 7, 7, 7, 9, 9, 9, 9, 10, 10, 10, 10, 8, 8, 8, 8)
LEDGER_TREE_N = 4
# The brute-force re-check (n <= 8) walks the arrangements in
# itertools.permutations order until it reaches the sorted one, so its cost
# follows the lexicographic rank of the sorting arrangement. At n = 7 and 8
# that rank is drawn from a fixed share of n!, which keeps each size in its
# band whatever the seed.
LEDGER_RANK_SHARE = {7: (0.05, 0.15), 8: (0.2, 0.3)}


def _unrank(rank: int, n: int) -> list[int]:
    """The arrangement of 0..n-1 at this lexicographic rank."""
    items, out = list(range(n)), []
    for k in range(n, 0, -1):
        index, rank = divmod(rank, math.factorial(k - 1))
        out.append(items.pop(index))
    return out


def _ledger_input(rng: random.Random, n: int) -> list[int]:
    if n not in LEDGER_RANK_SHARE:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        return perm
    lo, hi = LEDGER_RANK_SHARE[n]
    fact = math.factorial(n)
    # positions[v - 1] is where value v sits: the sorting arrangement
    positions = _unrank(rng.randrange(int(lo * fact), int(hi * fact)), n)
    perm = [0] * n
    for value, pos in enumerate(positions, start=1):
        perm[pos] = value
    return perm


def _ledger_block(rng: random.Random) -> list[dict]:
    block = []
    offset = rng.randrange(len(ALGORITHMS))
    for k, n in enumerate(LEDGER_SIZES):
        perm = _ledger_input(rng, n)
        algorithm = ALGORITHMS[(k + offset) % len(ALGORITHMS)]
        argv = ["slice", "--n", str(n), "--instrument", algorithm,
                "--input", ",".join(map(str, perm))]
        block.append({"check": "ledger", "argv": argv, "perm": perm})
    n = LEDGER_TREE_N
    block.append({"check": "tree", "argv": ["dtree", "--n", str(n)], "n": n})
    rng.shuffle(block)
    return block


def _check_ledger(req: dict, out: str) -> None:
    data = json.loads(out)
    perm = req["perm"]
    n = len(perm)
    trace = data["trace"]
    _require(data["input"] == perm, "input echo differs")
    _require(data["comparisons"] == len(trace) > 0, "comparison count")
    _require(trace[0]["feasible_before"] == math.factorial(n), "trace does not start at n!")
    for prev, step in zip(trace, trace[1:]):
        _require(step["feasible_before"] == prev["feasible_after"], "trace does not telescope")
    for step in trace:
        want = math.log2(step["feasible_before"] / step["feasible_after"])
        _require(_close(step["bits"], want, CLI_REL_TOL), f"bits at step {step['step']}")
    _require(trace[-1]["feasible_after"] == 1 == data["final_count"], "trace does not end at 1")
    log2_fact = math.log2(math.factorial(n))
    _require(_close(data["total_bits"], log2_fact, CLI_REL_TOL), "total_bits is not log2 n!")
    _require(data["isolates_sorted"] is True, "isolates_sorted flag")


def _check_tree(req: dict, out: str) -> None:
    data = json.loads(out)
    fact = math.factorial(req["n"])
    bound = (fact - 1).bit_length()  # ceil(log2 n!)
    _require(data["info_bound"] == bound == data["height"], "height is not ceil(log2 n!)")
    _require(data["leaf_count"] == fact, "leaf count is not n!")


# --- registry -----------------------------------------------------------------

#: name -> (block generator, blocks in a timed pass, blocks in a traced pass)
WORKLOADS = {
    "schedule": (_schedule_block, 7, 6),
    "descent": (_descent_block, 7, 5),
    "count": (_count_block, 7, 8),
    "ledger": (_ledger_block, 10, 16),
}

CHECKS = {
    "events": _check_events,
    "trace": _check_trace,
    "growth": _check_growth,
    "projected": _check_projected,
    "descent_lib": _check_descent_lib,
    "count": _check_count,
    "ledger": _check_ledger,
    "tree": _check_tree,
}


def generate(workload: str, seed: int) -> list[list[dict]]:
    """The workload's request list for this seed, as ``BLOCKS`` blocks."""
    make_block, _, _ = WORKLOADS[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [make_block(rng) for _ in range(BLOCKS)]


def inversions_in(blocks: list[list[dict]]) -> int:
    """Summed inversions of the ``flow events`` starts: the events they must emit."""
    return sum(
        count_inversions(req["perm"]) for block in blocks for req in block if req["check"] == "events"
    )


def check(req: dict, output) -> None:
    """Raise CheckFailed unless the output answers the request correctly."""
    CHECKS[req["check"]](req, output)

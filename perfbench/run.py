"""The permflow benchmark: closed-loop runs of the public entry points.

This is not ``permflow bench``. That subcommand prints the lower-bound growth
table, and here it is only one of the requests of the ``schedule`` workload.

One client in one process, no threads. It sends the next request as soon as
the previous one returns. A request is one ``permflow.cli.main(argv)`` call
with stdout captured, or a library call where the CLI cannot express the
input. Run it from the root of a checkout:

    python3 perfbench/run.py --workload schedule --seed 1 --seconds 20 --trace 0

``--trace 0`` makes passes over the same fixed requests until they have
taken ``--seconds`` of request time. It scales every wall time to a
reference machine speed with a calibration loop timed around it, and
reports the end-to-end metrics over each request's median scaled time.
``--trace 1`` runs a fixed prefix of the request list twice, first untraced
and then with every layer wrapped in spans. It then runs the fixed-size
kernel probes and reports the per-layer metrics. The spans go to
``.perfbench_out/spans-<workload>.jsonl``. Every output is checked outside
the timed region; a request that raises, exits non-zero or fails its check
counts as failed. Metric names and units come from ``BENCHMARK.json``.

The next-to-last stdout line describes the run: the digest of the generated
requests, the sample counts, the failures and the machine. The last line is
the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_LAUNCHES = 9
MIN_REQUESTS = 100  # so that at least 10 samples lie beyond p90
MIN_PASSES = 3
FAILURES_SHOWN = 5
# About the calibration loop's time on the 2-vCPU 2.1 GHz Xeon VM the bounds
# were set on, when its host is quiet. Timings are scaled to that speed.
CALIBRATION_REFERENCE_S = 1.0e-3


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_seconds() -> float:
    """Wall time from launching a fresh interpreter until ``import permflow.cli`` returns."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import permflow.cli; "
        "sys.stdout.write('ready\\n'); sys.stdout.flush()"
    )
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code, str(SRC)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
    if proc.returncode != 0 or line != "ready\n":
        die(f"a fresh interpreter could not import permflow.cli:\n{err}")
    return elapsed


def calibration_seconds() -> float:
    """Wall time of a fixed loop that does not call permflow.

    It mixes the kinds of work the workloads do: dict and str operations,
    small numpy calls, and a subset-DP-style pass over a fresh list.
    """
    import numpy

    ramp = numpy.arange(64.0)
    start = time.perf_counter()
    table, total = {}, 0.0
    for i in range(1600):
        table[i & 255] = table.get(i & 255, 0) + i
        total += len(str(i))
    for _ in range(40):
        total += float(numpy.cumsum(numpy.diff(ramp)).sum())
    counts = [0] * 8192
    counts[0] = 1
    for mask in range(8192):
        if mask & 1:
            continue
        counts[mask | 1] += counts[mask] + 1
    return time.perf_counter() - start


def import_permflow():
    if not (SRC / "permflow" / "cli.py").is_file():
        die(f"no permflow sources under {SRC}; run from the root of a permflow checkout")
    sys.path.insert(0, str(SRC))
    import permflow.cli
    import permflow.projection

    if Path(permflow.cli.__file__).resolve().parent != SRC / "permflow":
        die(f"imported permflow from {permflow.cli.__file__}, not from {SRC}")
    return permflow


def machine_facts() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "permflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Client:
    """Sends requests one at a time and checks each answer after timing it."""

    def __init__(self, permflow_pkg):
        self.cli = permflow_pkg.cli
        self.projection = permflow_pkg.projection
        self.verified = {}  # id(request) -> CLI output that passed its check

    def execute(self, req: dict):
        if "argv" in req:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(req["argv"])
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return out.getvalue()
        # Looked up on every call, so a traced pass reaches the wrapper.
        return self.projection.integrate_projected(req["x0"], req["t_end"], step=req["step"])

    def send(self, req: dict, tracer=None, request_id: int = 0) -> tuple[float, str | None]:
        """(seconds the request took, failure reason or None)."""
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.execute(req)
            else:
                root = "cli.main" if "argv" in req else "bench.call"
                out = tracer.request(request_id, root, self.execute, req)
        except (Exception, SystemExit) as exc:  # argparse exits on bad argv
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if isinstance(out, str) and self.verified.get(id(req)) == out:
            return elapsed, None  # the same answer to the same request passed before
        try:
            workloads.check(req, out)
        except CheckFailed as exc:
            return elapsed, f"check failed: {exc}"
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return elapsed, f"malformed output: {type(exc).__name__}: {exc}"
        if isinstance(out, str):
            self.verified[id(req)] = out
        return elapsed, None


def run_blocks(client, blocks, tracer=None, first_id=0):
    latencies, failures = [], []
    for block in blocks:
        for req in block:
            elapsed, failure = client.send(req, tracer, first_id + len(latencies))
            latencies.append(elapsed)
            if failure:
                failures.append(failure)
    return latencies, failures


def timed_passes(client, requests, seconds):
    """Whole passes over ``requests`` until ``seconds`` of request time.

    Returns each request's times, one per pass, the failures and the set-up
    times. Every time is a pair: the wall time, and the mean of the
    calibration loop's times just before and just after it. The set-up
    launches are spread evenly over the request time, so they sample the
    machine at different moments, as the passes do.
    """
    times = [[] for _ in requests]
    failures, setups = [], []
    spent = 0.0
    passes = 0
    calibration = calibration_seconds()

    def timed(fn, *args):
        nonlocal calibration
        before = calibration
        out = fn(*args)
        calibration = calibration_seconds()
        return out, (before + calibration) / 2

    while spent < seconds or passes < MIN_PASSES:
        for k, req in enumerate(requests):
            (elapsed, failure), calibration_around = timed(client.send, req)
            times[k].append((elapsed, calibration_around))
            spent += elapsed
            if failure:
                failures.append(failure)
            if len(setups) < SETUP_LAUNCHES and spent >= len(setups) * seconds / SETUP_LAUNCHES:
                setups.append(timed(setup_seconds))
        passes += 1
    while len(setups) < SETUP_LAUNCHES:
        setups.append(timed(setup_seconds))
    return times, failures, setups


def measure(workload, blocks, seconds, client):
    """End-to-end metrics, facts for the info line, failures, requests attempted.

    A shared host's speed drifts by up to 2x, in stretches from under a
    second to minutes, longer than a run. So every wall time is scaled by
    ``CALIBRATION_REFERENCE_S`` over the calibration loop's time around it:
    to the time it would take on a machine of the reference speed. A
    request's time is the median of its passes' scaled times, and the metrics
    are taken over those. The unscaled metrics, from each request's median
    wall time, go to the info line.
    """
    _, timed_blocks, _ = workloads.WORKLOADS[workload]
    requests = [req for block in blocks[:timed_blocks] for req in block]
    if len(requests) < MIN_REQUESTS:
        die(f"{workload} times {len(requests)} requests, fewer than {MIN_REQUESTS}")
    run_blocks(client, blocks[-1:])  # warm-up: lazy imports and first-call costs
    times, failures, setups = timed_passes(client, requests, seconds)

    def timing_metrics(setup_times, request_times):
        return {
            "setup_s": statistics.median(setup_times),
            "throughput_rps": len(request_times) / sum(request_times),
            "latency_p50_s": statistics.median(request_times),
            "latency_p90_s": statistics.quantiles(request_times, n=10)[8],
        }

    def scaled(pair):
        wall, calibration = pair
        return wall * CALIBRATION_REFERENCE_S / calibration

    metrics = timing_metrics(
        [scaled(pair) for pair in setups],
        [statistics.median(scaled(pair) for pair in passes) for passes in times],
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unscaled = timing_metrics(
        [wall for wall, _ in setups],
        [statistics.median(wall for wall, _ in passes) for passes in times],
    )
    calibrations = [calibration for passes in times for _, calibration in passes]
    facts = {
        "blocks_run": timed_blocks,
        "samples": {
            "setup_s": len(setups),
            "throughput_rps": len(times),
            "latency_p50_s": len(times),
            "latency_p90_s": len(times),
            "peak_rss_mb": 1,
            "passes": len(times[0]),
        },
        "calibration_median_s": statistics.median(calibrations),
        "unscaled": unscaled,
    }
    return metrics, facts, failures, len(times) * len(times[0])


def measure_traced(workload, blocks, seed, client):
    """Per-layer metrics, facts for the info line, failures, checks attempted."""
    import probes
    from tracing import Tracer

    _, _, trace_blocks = workloads.WORKLOADS[workload]
    prefix = blocks[:trace_blocks]
    run_blocks(client, prefix[:1])  # warm-up
    # Untraced and traced passes alternate block by block, so drift in the
    # machine's speed lands on both sides of trace.overhead_frac alike.
    tracer = Tracer()
    plain, traced, failures = [], [], []
    for block in prefix:
        lat, fail = run_blocks(client, [block])
        plain += lat
        failures += fail
        tracer.install()
        try:
            lat, fail = run_blocks(client, [block], tracer, first_id=len(traced))
        finally:
            tracer.remove()
        traced += lat
        failures += fail
    metrics = tracer.metrics(len(traced))
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    kernels, wrong = probes.run_probes()
    metrics.update(kernels)
    failures += [f"kernel probe gave a wrong result: {name}" for name in wrong]
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload}.jsonl"
    tracer.write(spans_file, {"workload": workload, "seed": seed, "blocks": len(prefix)})
    samples = {
        "requests_traced": len(traced),
        "inversions_in_inputs": workloads.inversions_in(prefix),
        "spans": len(tracer.spans),
        "kernel_reps": probes.REPS,
        "unwrapped": tracer.missing,
    }
    attempted = len(plain) + len(traced) + len(kernels)
    return metrics, {"blocks_run": len(prefix), "samples": samples}, failures, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    permflow_pkg = import_permflow()
    machine = machine_facts()

    blocks = workloads.generate(args.workload, args.seed)
    inputs_sha256 = hashlib.sha256(json.dumps(blocks, sort_keys=True).encode()).hexdigest()
    client = Client(permflow_pkg)
    if args.trace:
        values, facts, failures, attempted = measure_traced(
            args.workload, blocks, args.seed, client
        )
    else:
        values, facts, failures, attempted = measure(args.workload, blocks, args.seconds, client)

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        die(f"metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": inputs_sha256,
        **facts,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:FAILURES_SHOWN],
        "machine": machine,
    }
    print(json.dumps({"perfbench": info}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

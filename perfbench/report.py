"""Print the benchmark's metrics for every workload, by name and with units.

    python3 perfbench/report.py --seed 1            # end-to-end metrics
    python3 perfbench/report.py --seed 1 --trace 1  # per-layer metrics

Runs ``perfbench/run.py`` once per workload, one after another, and prints
one row per metric with a column per workload. The last rows give the share
of failed requests, the number of samples and the digest of the generated
inputs, so that two reports can be shown to have run the same requests.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{name}: run.py exited {done.returncode}\n{done.stderr}")
    *_, info_line, result_line = done.stdout.splitlines()
    return json.loads(info_line)["perfbench"], json.loads(result_line)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    runs = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    width = max(len(m["name"]) + len(m["unit"]) for m in declared) + 4
    print(f"{'metric (unit)':<{width}}" + "".join(f"{name:>14}" for name in names))
    for m in declared:
        label = f"{m['name']} ({m['unit']})"
        cells = "".join(f"{runs[n][1]['metrics'][m['name']]['value']:>14.6g}" for n in names)
        print(f"{label:<{width}}{cells}")
    print(f"{'failed_frac':<{width}}" + "".join(f"{runs[n][0]['failed_frac']:>14.4g}" for n in names))
    print(f"{'attempted':<{width}}" + "".join(f"{runs[n][1]['attempted']:>14}" for n in names))
    print(f"{'inputs_sha256':<{width}}" + "".join(f"{runs[n][0]['inputs_sha256'][:12]:>14}" for n in names))
    for name in names:
        for failure in runs[name][0]["failures"]:
            print(f"{name}: {failure}")
    return 0 if all(result["correct"] for _, result in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

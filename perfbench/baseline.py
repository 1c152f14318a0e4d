"""Measure every workload over a range of seeds and write the baseline.

    python3 perfbench/baseline.py [--seeds 10] [--out perfbench/baseline.json]

Run from the root of a source checkout.  For each workload of
``BENCHMARK.json`` it makes one untraced run per seed (1 to ``--seeds``) and
one traced run with seed 1, each with the benchmark's ``run_seconds``.  It
writes, for each end-to-end metric, the median, the quartiles and the spread
(interquartile range over median), and prints a line per metric that marks
any spread above a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(printed result, result.json) of one run."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect answers\n{done.stdout}")
    details = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    return result, json.loads(details.read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, args.seeds + 1))
    workloads = {}
    environment = None
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        environment = runs[0][1]["environment"]
        metrics = {}
        for m in spec["end_to_end"]:
            values = [result["metrics"][m["name"]]["value"] for result, _ in runs]
            metrics[m["name"]] = dict(unit=m["unit"], values=values, **summary(values))
            flag = "" if metrics[m["name"]]["spread"] < m["bound"] / 3 else "  above bound/3"
            print(f"{workload:15} {m['name']:15} median {metrics[m['name']]['median']:.5g} "
                  f"spread {metrics[m['name']]['spread']:.3f} bound {m['bound']}{flag}",
                  flush=True)
        wall = {name: summary([details["wall"][name] for _, details in runs])
                for name in runs[0][1]["wall"]}
        traced, _ = bench(workload, 1, spec["run_seconds"], 1)
        workloads[workload] = {
            "seeds": seeds,
            "metrics": metrics,
            "wall": wall,
            "host_speed": [details["host_speed"] for _, details in runs],
            "fail_ratio": [details["fail_ratio"] for _, details in runs],
            "passes": [details["passes"] for _, details in runs],
            "traced_seed_1": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    baseline = {
        "description": (f"Seeds 1-{args.seeds}, --seconds {spec['run_seconds']}, tracing off: "
                        "median, quartiles and spread of each end-to-end metric (times in "
                        "normalized seconds), and the wall-clock figures. Per-layer values "
                        "are from one --trace 1 run, seed 1."),
        "environment": environment,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

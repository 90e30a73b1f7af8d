"""Run the benchmark over several seeds and summarise it as a baseline.

    python3 bench/summarize.py --runs 10 --out bench/baseline.json

For each seed in turn it runs every workload once untraced (so a slow spell
on the machine hits all workloads alike), then each workload once traced.
The summary holds, per workload and end-to-end metric, the median, the
quartiles and their spread (interquartile range / median), the per-layer
metrics of the traced run, the machine, the commit and the run count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in doc["workloads"]])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = doc["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in seeds:
        for workload in args.workloads:
            result = run(workload, seed, seconds, 0)
            print(workload, seed, json.dumps(result), flush=True)
            results[workload].append(result)

    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    summary = {
        "commit": commit(),
        "machine": machine(),
        "run_seconds": seconds,
        "runs_per_workload": args.runs,
        "seeds": seeds,
        "workloads": {},
    }
    for workload, runs in results.items():
        traced = run(workload, args.first_seed, seconds, 1)
        end_to_end = {}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["bound"] = bound
            end_to_end[name] = stats
            print(f"{workload:15s} {name:16s} median {stats['median']:10.4f} "
                  f"spread {stats['spread']:.3f} (bound {bound})")
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

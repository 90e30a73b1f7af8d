"""regio's benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload de-11k-parent --seed 7 --seconds 50 --trace 0

It writes a seeded synthetic project into ``.bench_work/`` under the
repository root, then measures it with fresh interpreters (``child.py``):

1. ``WARMUP_SETUPS`` set-up samples (import regio, load the project); they
   also warm the file cache for the samples that follow.
2. ``--trace 0``: cycles until ``--seconds`` is used up (at least
   ``MIN_CYCLES``). A cycle is one more set-up sample, one ``calibrate.py``
   sample, one pass of check, impute, disaggregate and validate, then
   ``check``, ``disaggregate`` and ``validate`` each alone: the short
   commands jitter more from sample to sample than ``impute``, so they get
   twice the samples.
   The cycles spread every metric over the whole run, so a slow spell of
   the shared host weighs on all of them alike. Every end-to-end metric is
   the median over its samples; each time is then multiplied by
   ``CALIBRATION_REFERENCE_S`` / (median calibration time of the run), which
   takes out how fast the host happened to run during this run.
   ``--trace 1``: one untraced pass, then one traced pass; reports the
   per-layer metrics of the traced pass and the tracing overhead.
3. The outputs of the last pass go through ``checker.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` counts the CLI
commands run plus the output checks made; ``failed`` counts commands that
exited non-zero plus checks that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# Median time of one calibrate.py kernel on the machine of baseline.json.
CALIBRATION_REFERENCE_S = 0.16
WARMUP_SETUPS = 3
MIN_CYCLES = 2
CHILD_TIMEOUT_S = 150
STAGES = ("check", "impute", "disaggregate", "validate")
LIGHT_STAGES = ("check", "disaggregate", "validate")


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def run_child(args: list[str], out: Path, script: str = "child.py"):
    """Run ``script`` in a fresh interpreter and return what it wrote to ``out``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args[:2], str(out), *args[2:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{script} {' '.join(args[:1])} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-4000:]}"
        )
    return json.loads(out.read_text(encoding="utf-8"))


def one_pass(
    config: Path, work: Path, jobs: int, stages=STAGES, trace: bool = False
) -> dict:
    """One fresh interpreter running ``stages``; a full pass starts from no outputs."""
    if stages == STAGES:
        shutil.rmtree(config.parent / "output", ignore_errors=True)
    args = ["pass", str(config), "--jobs", str(jobs), "--stages", ",".join(stages)]
    return run_child(args + (["--trace"] if trace else []), work / "pass.json")


def end_to_end(
    passes: list[dict], light: list[dict], setups: list[float], scale: float
) -> dict[str, float]:
    """Medians over the samples; times are multiplied by ``scale``."""
    metrics = {}
    for stage in STAGES:
        metrics[f"{stage}_s"] = scale * statistics.median(
            s["seconds"][stage] for s in passes + light if stage in s["seconds"]
        )
    metrics["total_s"] = scale * statistics.median(sum(p["seconds"].values()) for p in passes)
    metrics["setup_s"] = scale * statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="regio benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "regio" / "__init__.py").is_file():
        print(f"error: regio sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from checker import check_outputs, stored_digests
    from project import WORKLOADS, write_project

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = write_project(args.workload, args.seed, work / "project")
        setups = [
            run_child(["setup", str(config)], work / "setup.json")["setup_s"]
            for _ in range(WARMUP_SETUPS)
        ]
        passes, light, calibration, traced = [], [], [], None
        if args.trace:
            passes.append(one_pass(config, work, workload.jobs))
            traced = one_pass(config, work, workload.jobs, trace=True)
        else:
            # Start a cycle only if it should end before the deadline.
            started, cycles = time.perf_counter(), []
            while len(cycles) < MIN_CYCLES or (
                time.perf_counter() - started + statistics.median(cycles) < args.seconds
            ):
                began = time.perf_counter()
                setups.append(run_child(["setup", str(config)], work / "setup.json")["setup_s"])
                calibration.extend(run_child([], work / "calibration.json", "calibrate.py"))
                passes.append(one_pass(config, work, workload.jobs))
                light.extend(one_pass(config, work, workload.jobs, (s,)) for s in LIGHT_STAGES)
                cycles.append(time.perf_counter() - began)
        check = check_outputs(config.parent, stored_digests(args.workload, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    runs = passes + light + ([traced] if traced else [])
    failed_commands = sum(code != 0 for s in runs for code in s["codes"].values())
    attempted = sum(len(s["codes"]) for s in runs) + check.attempted
    failed = failed_commands + len(check.failures)
    for message in check.failures:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        plain = sum(passes[0]["seconds"].values())
        traced_total = sum(traced["seconds"].values())
        metrics = dict(traced["layers"])
        metrics["trace.overhead_pct"] = 100.0 * (traced_total / plain - 1.0)
        metrics["outputs.error_rate"] = failed / attempted
        metrics["outputs.max_conservation_residual"] = check.max_residual
        metrics["outputs.min_imputed_r2_val"] = (
            check.min_r2_val if check.min_r2_val is not None else 0.0
        )
        kind = "per_layer"
        print(f"{'function':<58}{'calls':>10}{'total s':>10}{'self s':>10}", file=sys.stderr)
        for name, calls, total, self_s in traced["functions"][:40]:
            print(f"{name:<58}{calls:>10}{total:>10.4f}{self_s:>10.4f}", file=sys.stderr)
    else:
        for sample in passes + light:
            print(" ".join(f"{k}_s {v:.4f}" for k, v in sample["seconds"].items()))
        print("setup_s " + " ".join(f"{v:.4f}" for v in setups))
        scale = CALIBRATION_REFERENCE_S / statistics.median(calibration)
        metrics = end_to_end(passes, light, setups, scale)
        kind = "end_to_end"
        print(
            f"{args.workload} seed {args.seed}: {len(passes)} passes, "
            f"calibration median {statistics.median(calibration):.4f} s, time scale {scale:.4f}, "
            f"max conservation residual {check.max_residual:.3g}, "
            f"min imputed r2_val {check.min_r2_val}",
        )
    unit = units(kind)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measurement in a fresh interpreter; ``run.py`` starts one per sample.

    python3 bench/child.py setup CONFIG OUT
    python3 bench/child.py pass CONFIG OUT --jobs N [--stages check,validate] [--trace]

``setup`` times importing regio and loading the project through its public
loaders. ``pass`` runs check, impute, disaggregate and validate (or the
``--stages`` given) through ``regio.cli.main`` and times each call; with
``--trace`` it instruments regio first and also reports the per-layer
metrics. Either way the result
goes to OUT as JSON; regio's own console output stays on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

STAGES = ("check", "impute", "disaggregate", "validate")


def measure_setup(config_path: str) -> dict:
    started = time.perf_counter()
    from regio import (
        build_store,
        load_hierarchy,
        load_pipeline_config,
        load_project_config,
        load_proxy_assignments,
        load_registry,
    )

    config = load_project_config(config_path)
    hierarchy = load_hierarchy(config.hierarchy_path)
    registry = load_registry(config.registry_path)
    build_store(config, hierarchy, registry)
    assignments = load_proxy_assignments(config.proxy_assignments_path)
    load_pipeline_config(config.pipeline_path, assignments)
    return {"setup_s": time.perf_counter() - started}


def measure_pass(config_path: str, jobs: int, stages: list[str], trace: bool) -> dict:
    tracer = None
    if trace:
        from tracing import instrument

        tracer = instrument()
    from regio import cli

    seconds, codes = {}, {}
    for stage in stages:
        started = time.perf_counter()
        codes[stage] = cli.main([stage, "--config", config_path, "--jobs", str(jobs)])
        seconds[stage] = time.perf_counter() - started
    result = {
        "seconds": seconds,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import function_table, layer_metrics

        result["layers"] = layer_metrics(tracer)
        result["functions"] = function_table(tracer)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark sample")
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--stages", default=",".join(STAGES))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = measure_setup(args.config)
    else:
        result = measure_pass(args.config, args.jobs, args.stages.split(","), args.trace)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Batch entry point: check -> impute -> disaggregate -> validate -> report.

Exit codes: 0 success, 2 validation/config error, 3 I/O error. Commands are
idempotent; re-running overwrites outputs. Two runs with identical inputs
and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .config import (
    ComparisonSpec,
    ProjectConfig,
    RegistryEntry,
    ingest_registry,
    load_project_config,
    load_registry,
    read_reference_csv,
)
from .disaggregation import TaskSpec, check_dependencies, load_pipeline_config, run_pipeline
from .errors import ConfigError, RegioError
from .formulas import load_proxy_assignments
from .hierarchy import RegionHierarchy, SpatialLevel, load_hierarchy
from .imputation import impute_series
from .series import (
    SeriesMeta,
    VariableStore,
    aggregate,
    atomic_writer,
    read_series_csv,
    write_series_csv,
)
from .validation import compare_at_level, markdown_table, write_deviation_csv

OK = 0
VALIDATION_ERROR = 2
IO_ERROR = 3


def _dump_json(obj, path: Path) -> None:
    with atomic_writer(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class LoadedProject:
    config: ProjectConfig
    hierarchy: RegionHierarchy | None
    registry: list[RegistryEntry]
    store: VariableStore | None
    specs: list[TaskSpec]
    findings: list[str]


def _load_project(config: ProjectConfig) -> LoadedProject:
    """Load every project input, collecting each RegioError as a finding.

    An input that fails to load is replaced by an empty stand-in (no store
    without a hierarchy), so the later inputs are still loaded and checked.
    """
    findings: list[str] = []

    def attempt(load, *args, default):
        try:
            return load(*args)
        except RegioError as exc:
            findings.append(str(exc))
            return default

    hierarchy = attempt(load_hierarchy, config.hierarchy_path, default=None)
    registry = attempt(load_registry, config.registry_path, default=[])
    store = None
    if hierarchy is not None:
        store, errors = ingest_registry(config, hierarchy, registry)
        findings.extend(str(exc) for exc in errors)
    assignments = {}
    if config.proxy_assignments_path is not None:
        assignments = attempt(load_proxy_assignments, config.proxy_assignments_path, default={})
    specs = attempt(load_pipeline_config, config.pipeline_path, assignments, default=[])
    return LoadedProject(config, hierarchy, registry, store, specs, findings)


def _read_reference(config: ProjectConfig, spec: ComparisonSpec, hierarchy: RegionHierarchy):
    if config.reference_dir is None:
        raise ConfigError(f"comparison {spec.target_id!r}: no reference_dir configured")
    path = config.reference_dir / spec.reference
    if not path.is_file():
        raise ConfigError(f"comparison {spec.target_id!r}: reference file not found: {path}")
    return read_reference_csv(path, hierarchy, spec.level)


def _print_errors(findings: list[str]) -> None:
    for finding in findings:
        print(f"error: {finding}")


def cmd_check(project: LoadedProject) -> int:
    """Validate hierarchy, series, formulas, dependency ordering and references."""
    config = project.config
    findings = list(project.findings)
    if project.store is not None and project.specs:
        try:
            check_dependencies(project.specs, project.store)
        except RegioError as exc:
            findings.append(str(exc))
    if project.hierarchy is not None:
        for spec in config.comparisons:
            try:
                _read_reference(config, spec, project.hierarchy)
            except RegioError as exc:
                findings.append(str(exc))
    _print_errors(findings)
    print(f"{len(findings)} error{'s' if len(findings) != 1 else ''}")
    return OK if not findings else VALIDATION_ERROR


def _impute_candidates(store, hierarchy, target):
    candidates = []
    needed = set(target.regions())
    for series in store.all_series():
        if series.variable_id == target.variable_id or not series.is_complete:
            continue
        if series.level == target.level:
            candidate = series
        elif series.level.is_finer_than(target.level):
            candidate = aggregate(series, hierarchy, target.level)
        else:
            continue
        if not needed <= set(candidate.codes):
            continue
        candidates.append(candidate)
    return candidates


def cmd_impute(project: LoadedProject, seed: int, jobs: int) -> int:
    """Fill every sub-national series that has missing values.

    National (NUTS0) series are the disaggregation targets and are never
    imputed; a missing national value later skips its pipeline task. The
    cross-validation fits of each variable run in up to ``jobs`` processes.
    """
    config = project.config
    if project.findings:
        _print_errors(project.findings)
        return VALIDATION_ERROR
    out_dir = config.output_dir / "imputed"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"i/o error: {exc}")
        return IO_ERROR

    icfg = config.imputation_config(seed)
    summary = {"imputed": {}, "complete": []}
    try:
        for series in project.store.all_series():
            if series.level == SpatialLevel.NUTS0:
                continue
            if series.is_complete:
                summary["complete"].append(series.variable_id)
                continue
            candidates = _impute_candidates(project.store, project.hierarchy, series)
            completed, report = impute_series(series, candidates, icfg, jobs)
            write_series_csv(completed, out_dir / f"{series.variable_id}.csv")
            _dump_json(report.to_dict(), out_dir / f"{series.variable_id}_report.json")
            n_imputed = len(series.missing_regions())
            summary["imputed"][series.variable_id] = {
                "n_imputed": n_imputed,
                "method": report.method,
                "confidence": report.confidence.name,
            }
            print(
                f"imputed {series.variable_id}: {n_imputed} values "
                f"({report.method}, {report.confidence.name})"
            )
        _dump_json(summary, out_dir / "imputation_summary.json")
    except OSError as exc:
        print(f"i/o error: {exc}")
        return IO_ERROR
    print(f"{len(summary['imputed'])} variable(s) imputed")
    return OK


def _overlay_imputed(project: LoadedProject) -> list[str]:
    """Replace incomplete sub-national series with their imputed outputs."""
    unresolved = []
    imputed_dir = project.config.output_dir / "imputed"
    for entry in project.registry:
        series = project.store.get(entry.meta.variable_id, entry.meta.level)
        if series.level == SpatialLevel.NUTS0 or series.is_complete:
            continue
        path = imputed_dir / f"{series.variable_id}.csv"
        if not path.is_file():
            unresolved.append(series.variable_id)
            continue
        completed = read_series_csv(path, entry.meta, project.hierarchy)
        if not completed.is_complete:
            unresolved.append(series.variable_id)
            continue
        project.store.add(completed, replace=True)
    return unresolved


def cmd_disaggregate(project: LoadedProject, jobs: int) -> int:
    """Run the staged pipeline and write one CSV per target plus a run report.

    It overlays the imputed series onto ``project.store`` in place, so
    ``run`` calls it after every other user of the store.
    """
    config = project.config
    if project.findings:
        _print_errors(project.findings)
        return VALIDATION_ERROR
    try:
        unresolved = _overlay_imputed(project)
    except RegioError as exc:
        print(f"error: {exc}")
        return VALIDATION_ERROR
    if unresolved:
        print(
            "error: series with missing values and no imputed output "
            f"({', '.join(unresolved)}); run 'regio impute' first"
        )
        return VALIDATION_ERROR
    try:
        run = run_pipeline(
            project.specs,
            project.hierarchy,
            project.store,
            normalize_scope=config.normalize_scope,
            weights_on_raw=config.weights_on_raw,
            jobs=jobs,
        )
    except RegioError as exc:
        print(f"error: {exc}")
        return VALIDATION_ERROR
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
        for target_id in sorted(run.results):
            write_series_csv(run.results[target_id].series, config.output_dir / f"{target_id}.csv")
        _dump_json(run.report_dict(), config.output_dir / "run_report.json")
    except OSError as exc:
        print(f"i/o error: {exc}")
        return IO_ERROR
    for report in run.reports:
        if report.status == "skipped":
            print(f"skipped {report.target_id}: {report.reason}")
        elif report.skipped_source_regions:
            print(
                f"{report.target_id}: skipped source regions "
                f"{', '.join(report.skipped_source_regions)}"
            )
    print(f"{len(run.results)} target(s) written to {config.output_dir}")
    return OK


def cmd_validate(config: ProjectConfig, hierarchy: RegionHierarchy) -> int:
    """Compare disaggregated outputs against reference datasets (reporting only)."""
    if not config.comparisons:
        print("no comparisons configured")
        return OK
    report_dir = config.output_dir / "validation"
    try:
        report_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"i/o error: {exc}")
        return IO_ERROR
    for spec in config.comparisons:
        result_path = config.output_dir / f"{spec.target_id}.csv"
        if not result_path.is_file():
            print(
                f"error: no disaggregated output for {spec.target_id!r} "
                f"({result_path}); run 'regio disaggregate' first"
            )
            return VALIDATION_ERROR
        meta = SeriesMeta(spec.target_id, "", "", SpatialLevel.LAU)
        try:
            result = read_series_csv(result_path, meta, hierarchy)
            reference, labels = _read_reference(config, spec, hierarchy)
            comparison = compare_at_level(result, reference, hierarchy, spec.level)
        except RegioError as exc:
            print(f"error: {exc}")
            return VALIDATION_ERROR
        rows = [replace(r, label=labels.get(r.label, r.label)) for r in comparison.rows]
        try:
            write_deviation_csv(rows, report_dir / f"deviation_{spec.target_id}.csv")
            with atomic_writer(report_dir / f"deviation_{spec.target_id}.md") as fh:
                fh.write(markdown_table(rows))
        except OSError as exc:
            print(f"i/o error: {exc}")
            return IO_ERROR
        worst = max((abs(r.pct_deviation) for r in rows), default=0.0)
        print(
            f"{spec.target_id} vs {spec.reference} at {spec.level.name}: "
            f"{len(rows)} rows, max |deviation| {worst:.2f}%"
            + (
                f", unmatched reference regions: {', '.join(comparison.unmatched_reference)}"
                if comparison.unmatched_reference
                else ""
            )
            + (
                f", undefined (zero reported): {', '.join(comparison.undefined)}"
                if comparison.undefined
                else ""
            )
        )
    return OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="regio",
        description="Proxy-based spatial disaggregation of national totals to LAU level",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("check", "validate project inputs"),
        ("impute", "fill missing proxy values"),
        ("disaggregate", "run the staged disaggregation pipeline"),
        ("validate", "compare outputs against reference datasets"),
        ("run", "check, impute, disaggregate and validate in order"),
    ]:
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="project config JSON")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--jobs", type=int, default=1,
            help="impute: processes for the cross-validation fits; "
            "disaggregate: threads for the tasks of a stage",
        )
    args = parser.parse_args(argv)

    try:
        config = load_project_config(args.config)
    except RegioError as exc:
        print(f"error: {exc}")
        return VALIDATION_ERROR

    if args.seed is not None:
        seed = args.seed
    elif os.environ.get("REGIO_SEED") is not None:
        try:
            seed = int(os.environ["REGIO_SEED"])
        except ValueError:
            print("error: REGIO_SEED must be an integer")
            return VALIDATION_ERROR
    else:
        seed = config.seed
    jobs = max(1, args.jobs)

    if args.command == "validate":  # needs the hierarchy only, not the series
        try:
            hierarchy = load_hierarchy(config.hierarchy_path)
        except RegioError as exc:
            print(f"error: {exc}")
            return VALIDATION_ERROR
        return cmd_validate(config, hierarchy)
    project = _load_project(config)
    if args.command == "check":
        return cmd_check(project)
    if args.command == "impute":
        return cmd_impute(project, seed, jobs)
    if args.command == "disaggregate":
        return cmd_disaggregate(project, jobs)
    # run: chain all four on one loaded project, stopping at the first failure
    for step in (
        lambda: cmd_check(project),
        lambda: cmd_impute(project, seed, jobs),
        lambda: cmd_disaggregate(project, jobs),
        lambda: cmd_validate(config, project.hierarchy),
    ):
        code = step()
        if code != OK:
            return code
    return OK


if __name__ == "__main__":
    sys.exit(main())

"""Batch entry point: check -> impute -> disaggregate -> validate -> report.

Exit codes: 0 success, 2 validation/config error, 3 I/O error. The commands
raise; ``main`` alone turns a ``RegioError`` into ``error: <message>`` and
exit 2, and an ``OSError`` reading or writing a project file into
``i/o error: <message naming the path>`` and exit 3. ``check`` alone
collects and prints every finding, among them each comparison whose target
no pipeline task produces. Commands are idempotent; re-running overwrites
outputs. Two runs with identical inputs and seed produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import (
    ComparisonSpec,
    ProjectConfig,
    RegistryEntry,
    ingest_registry,
    load_project_config,
    load_registry,
    read_reference_csv,
)
from .disaggregation import (
    ALLOCATE, TaskSpec, check_dependencies, load_pipeline_config, run_pipeline,
    source_findings,
)
from .errors import ConfigError, NonFiniteValue, RegioError
from .formulas import load_proxy_assignments, variables
from .hierarchy import RegionHierarchy, SpatialLevel, load_hierarchy
from .imputation import impute_all
from .series import (
    SeriesMeta,
    VariableStore,
    aggregate,
    atomic_writer,
    missing_report,
    read_series_csv,
    write_series_csv,
)
from .validation import compare_at_level, markdown_table, write_deviation_csv

OK = 0
VALIDATION_ERROR = 2
IO_ERROR = 3


def _dump_json(obj, path: Path) -> None:
    with atomic_writer(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


@dataclass
class LoadedProject:
    config: ProjectConfig
    hierarchy: RegionHierarchy | None
    registry: list[RegistryEntry] | None
    store: VariableStore | None
    specs: list[TaskSpec] | None
    findings: list[str]


def _collect(findings: list[str], call, *args, default=None):
    """``call(*args)``; if it raises a RegioError, append the message to
    ``findings`` and return ``default``."""
    try:
        return call(*args)
    except RegioError as exc:
        findings.append(str(exc))
        return default


def _load_project(config: ProjectConfig) -> LoadedProject:
    """Load every project input, collecting each RegioError as a finding.

    An input that fails to load is None in the project (and there is no
    store without a hierarchy), so the later inputs are still loaded and
    checked, and a check that reads a failed input skips it: the fault is
    one finding.
    """
    findings: list[str] = []
    hierarchy = _collect(findings, load_hierarchy, config.hierarchy_path)
    registry = _collect(findings, load_registry, config.registry_path)
    store = None
    if hierarchy is not None:
        store, errors = ingest_registry(config, hierarchy, registry or [])
        findings.extend(str(exc) for exc in errors)
    assignments = {}
    if config.proxy_assignments_path is not None:
        assignments = _collect(findings, load_proxy_assignments, config.proxy_assignments_path)
    specs = _collect(findings, load_pipeline_config, config.pipeline_path, assignments)
    return LoadedProject(config, hierarchy, registry, store, specs, findings)


def _read_reference(config: ProjectConfig, spec: ComparisonSpec, hierarchy: RegionHierarchy):
    if config.reference_dir is None:
        raise ConfigError(f"comparison {spec.target_id!r}: no reference_dir configured")
    path = config.reference_dir / spec.reference
    if not path.is_file():
        raise ConfigError(f"comparison {spec.target_id!r}: reference file not found: {path}")
    return read_reference_csv(path, hierarchy, spec.level)


def _series_findings(project: LoadedProject) -> list[str]:
    """One message per loaded sub-national series with no observed value,
    which ``impute`` cannot fill, and per LAU series that an allocate formula
    references and that holds a negative value, each naming the file."""
    proxies = {
        name for spec in project.specs or () if spec.mode == ALLOCATE
        for name in variables(spec.formula)
    }
    found = []
    for entry in project.registry or ():
        vid, level = entry.meta.variable_id, entry.meta.level
        if not project.store.has(vid, level):  # it did not load: a finding already
            continue
        series = project.store.get(vid, level)
        path = project.config.series_dir / entry.filename
        report = missing_report(series)
        if level != SpatialLevel.NUTS0 and report.total and report.missing == report.total:
            found.append(f"{path}: {vid} has no observed value to impute from")
        if level == SpatialLevel.LAU and vid in proxies:
            negative = series.data < 0
            if negative.any():
                found.append(f"{path}: {vid}: negative proxy value at "
                             f"{series.codes[negative.argmax()]!r}")
    return found


def _print_errors(findings: list[str]) -> None:
    for finding in findings:
        print(f"error: {finding}")


def cmd_check(project: LoadedProject) -> int:
    """Validate hierarchy, series, formulas, dependency ordering, comparison
    targets and references; print every finding."""
    config = project.config
    findings = list(project.findings)
    if project.store is not None:
        findings.extend(_series_findings(project))
    if project.store is not None and project.specs:
        if project.registry is not None:
            registered = [entry.meta.variable_id for entry in project.registry
                          if entry.meta.level == SpatialLevel.LAU]
            _collect(findings, check_dependencies, project.specs, project.store, registered)
        findings.extend(source_findings(project.specs, project.store, project.hierarchy))
    if project.specs is not None:
        targets = {spec.target_id for spec in project.specs}
        findings.extend(
            f"comparison #{i}: target {spec.target_id!r} is not a target of any task "
            f"in {config.pipeline_path}"
            for i, spec in enumerate(config.comparisons)
            if spec.target_id not in targets
        )
    if project.hierarchy is not None:
        for spec in config.comparisons:
            _collect(findings, _read_reference, config, spec, project.hierarchy)
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


def cmd_impute(project: LoadedProject, seed: int, jobs: int) -> None:
    """Fill every sub-national series that has missing values.

    National (NUTS0) series are the disaggregation targets and are never
    imputed; a missing national value later skips its pipeline task. One
    ``impute_all`` call imputes every variable, in up to ``jobs`` processes
    that it forks and shuts down before any output is written. A variable
    with no observed value fails the run before anything is fit or written,
    and so does a completed series that holds a non-finite value.
    """
    out_dir = project.config.output_dir / "imputed"
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"imputed": {}, "complete": []}
    targets = []
    for series in project.store.all_series():
        if series.level == SpatialLevel.NUTS0:
            continue
        if series.is_complete:
            summary["complete"].append(series.variable_id)
        else:
            targets.append(series)
    items = [(s, _impute_candidates(project.store, project.hierarchy, s)) for s in targets]
    results = impute_all(items, project.config.imputation_config(seed), jobs)
    for completed, _ in results:
        if not np.isfinite(completed.data).all():
            raise NonFiniteValue(f"{completed.variable_id}: imputation gave a non-finite value")
    for series, (completed, report) in zip(targets, results):
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
    print(f"{len(summary['imputed'])} variable(s) imputed")


def _overlay_imputed(project: LoadedProject) -> None:
    """Replace incomplete sub-national series with their imputed outputs;
    a ConfigError names every such series that has none."""
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
    if unresolved:
        raise ConfigError(
            "series with missing values and no imputed output "
            f"({', '.join(unresolved)}); run 'regio impute' first"
        )


def cmd_disaggregate(project: LoadedProject, jobs: int) -> None:
    """Run the staged pipeline and write one CSV per target plus a run report.

    It overlays the imputed series onto ``project.store`` in place, so
    ``run`` calls it after every other user of the store.
    """
    config = project.config
    _overlay_imputed(project)
    run = run_pipeline(
        project.specs,
        project.hierarchy,
        project.store,
        normalize_scope=config.normalize_scope,
        weights_on_raw=config.weights_on_raw,
        jobs=jobs,
    )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for target_id in sorted(run.results):
        write_series_csv(run.results[target_id].series, config.output_dir / f"{target_id}.csv")
    _dump_json(run.report_dict(), config.output_dir / "run_report.json")
    for report in run.reports:
        if report.status == "skipped":
            print(f"skipped {report.target_id}: {report.reason}")
        elif report.skipped_source_regions:
            print(
                f"{report.target_id}: skipped source regions "
                f"{', '.join(report.skipped_source_regions)}"
            )
    print(f"{len(run.results)} target(s) written to {config.output_dir}")


def cmd_validate(config: ProjectConfig, hierarchy: RegionHierarchy) -> None:
    """Compare disaggregated outputs against reference datasets (reporting only)."""
    if not config.comparisons:
        print("no comparisons configured")
        return
    report_dir = config.output_dir / "validation"
    report_dir.mkdir(parents=True, exist_ok=True)
    for spec in config.comparisons:
        result_path = config.output_dir / f"{spec.target_id}.csv"
        if not result_path.is_file():
            raise ConfigError(
                f"no disaggregated output for {spec.target_id!r} "
                f"({result_path}); run 'regio disaggregate' first"
            )
        meta = SeriesMeta(spec.target_id, "", "", SpatialLevel.LAU)
        result = read_series_csv(result_path, meta, hierarchy)
        reference, labels = _read_reference(config, spec, hierarchy)
        comparison = compare_at_level(result, reference, hierarchy, spec.level)
        rows = [replace(r, label=labels.get(r.label, r.label)) for r in comparison.rows]
        write_deviation_csv(rows, report_dir / f"deviation_{spec.target_id}.csv")
        with atomic_writer(report_dir / f"deviation_{spec.target_id}.md") as fh:
            fh.write(markdown_table(rows))
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
            help="impute: processes for the cross-validation and final fits; "
            "disaggregate: threads for the tasks of a stage",
        )
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except RegioError as exc:
        print(f"error: {exc}")
        return VALIDATION_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}")
        return IO_ERROR


def _dispatch(args: argparse.Namespace) -> int:
    """Run ``args.command``. Findings in the loaded project are printed and
    return exit 2; every other failure raises."""
    config = load_project_config(args.config)
    if args.seed is not None:
        seed = args.seed
    elif os.environ.get("REGIO_SEED") is not None:
        try:
            seed = int(os.environ["REGIO_SEED"])
        except ValueError:
            raise ConfigError("REGIO_SEED must be an integer") from None
    else:
        seed = config.seed
    jobs = max(1, args.jobs)

    if args.command == "validate":  # needs the hierarchy only, not the series
        cmd_validate(config, load_hierarchy(config.hierarchy_path))
        return OK
    project = _load_project(config)
    if args.command in ("check", "run"):
        code = cmd_check(project)
        if code != OK or args.command == "check":
            return code
    elif project.findings:
        _print_errors(project.findings)
        return VALIDATION_ERROR
    # run chains check, impute, disaggregate and validate on one loaded project
    if args.command in ("impute", "run"):
        cmd_impute(project, seed, jobs)
    if args.command in ("disaggregate", "run"):
        cmd_disaggregate(project, jobs)
    if args.command == "run":
        cmd_validate(config, project.hierarchy)
    return OK


if __name__ == "__main__":
    sys.exit(main())

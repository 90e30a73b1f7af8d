"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

They use the ``tiny`` project, so the whole file runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checker import check_outputs, stored_digests  # noqa: E402
from project import DEFAULT_SEED, GRID, WORKLOADS, write_project  # noqa: E402
from tracing import Span, instrument, layer_metrics, self_times  # noqa: E402

STAGES = ("check", "impute", "disaggregate", "validate")


def test_same_seed_same_bytes_other_seed_same_topology(tmp_path):
    write_project("tiny", 5, tmp_path / "a")
    write_project("tiny", 5, tmp_path / "b")
    write_project("tiny", 6, tmp_path / "c")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert len(files) == 17  # 5 project files, 11 series, 1 reference
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for name in ("hierarchy.csv", "pipeline.json", "variables.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()
    for name in ("series/population.csv", "series/transport_fec.csv", "config.json"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


@pytest.mark.parametrize("workload", ["impute-4k", "de-11k-parent"])
def test_every_seed_keeps_the_same_predictors(workload, tmp_path):
    """The seed changes values, not the work: imputation selects alike."""
    from regio import build_store, load_hierarchy, load_project_config, load_registry
    from regio.imputation import select_predictors
    from regio.series import aggregate

    def selections(seed: int) -> dict:
        config = load_project_config(write_project(workload, seed, tmp_path / str(seed)))
        hierarchy = load_hierarchy(config.hierarchy_path)
        store = build_store(config, hierarchy, load_registry(config.registry_path))
        complete = [s for s in store.all_series() if s.is_complete]
        chosen = {}
        for target in store.all_series():
            if target.is_complete or target.level.name == "NUTS0":
                continue
            candidates = [
                c if c.level == target.level else aggregate(c, hierarchy, target.level)
                for c in complete
                if c.level == target.level or c.level.is_finer_than(target.level)
            ]
            for threshold in GRID["thresholds"]:
                chosen[target.variable_id, threshold] = select_predictors(
                    target, candidates, threshold
                )
        return chosen

    first = selections(1)
    assert len(first) == 2 * len(WORKLOADS[workload].missing)
    assert selections(2) == first
    assert selections(987654321) == first


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """The tiny project at its default seed after one traced pass."""
    root = tmp_path_factory.mktemp("tiny")
    config = str(write_project("tiny", DEFAULT_SEED, root))
    from regio import cli

    tracer = instrument()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main([stage, "--config", config]) for stage in STAGES]
    finally:
        tracer.restore()
    assert codes == [0, 0, 0, 0]
    return root, layer_metrics(tracer)


def test_wrapped_functions_are_counted_at_their_lookup_names(traced_run):
    _, metrics = traced_run
    # check parses 3 assignments + 5 pipeline formulas + 5 in check_dependencies,
    # impute 3 + 5 while loading, disaggregate 3 + 5 + 5 + 5 in run_pipeline.
    assert metrics["formulas.parse_calls"] == 39
    assert metrics["formulas.parse_useful_ratio"] == 5 / 39
    # fit_gbrt and evaluate are called through names imported into other modules.
    assert metrics["gbrt.fit_calls"] == 82  # 2 thresholds x (8 grid points x 5 folds + 1)
    assert metrics["imputation.fits_per_cv_score"] == 1.0
    assert metrics["formulas.evaluate_calls"] == 10  # 5 allocate tasks x 2 countries
    assert metrics["hierarchy.load_calls"] == 4
    assert metrics["imputation.ensemble_vars"] == 1
    assert metrics["series.value_calls"] > 0
    assert metrics["cli.self_s"] > 0


def test_restore_puts_the_original_functions_back():
    import regio.gbrt
    import regio.imputation

    original = regio.imputation.fit_gbrt
    tracer = instrument()
    assert regio.imputation.fit_gbrt is not original
    assert regio.gbrt.fit_gbrt is regio.imputation.fit_gbrt
    tracer.restore()
    assert regio.imputation.fit_gbrt is original
    assert regio.gbrt.fit_gbrt is original


def test_self_time_subtracts_the_union_of_children():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 4.0, root)
    b = Span("b", 3.0, 6.0, root)  # overlaps a: ran on another thread
    leaf = Span("leaf", 2.0, 3.0, a)
    late = Span("late", 9.0, 12.0, root)  # clipped to the parent's end
    assert self_times([root, a, b, leaf, late]) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


@pytest.fixture
def outputs(traced_run, tmp_path):
    """A private copy of the finished project, safe to damage."""
    root, _ = traced_run
    copy = tmp_path / "project"
    shutil.copytree(root, copy)
    return copy


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_checker_accepts_the_seed_outputs(outputs):
    digests = stored_digests("tiny", DEFAULT_SEED)
    assert digests
    result = check_outputs(outputs, digests)
    assert result.failures == []
    # 1 imputed series, 6 targets, the run report, 1 comparison, then the digests
    assert result.attempted == 9 + len(digests)
    assert 0.0 <= result.max_residual <= 1e-9
    assert result.min_r2_val > 0.0


def test_checker_rejects_a_child_nudged_by_one_millionth(outputs):
    def nudge(lines):
        region, value, confidence = lines[1].rstrip("\n").split(",")
        lines[1] = f"{region},{format(float(value) * (1 + 1e-6), '.17g')},{confidence}\n"
        return lines

    _rewrite(outputs / "output" / "transport_fec.csv", nudge)
    failures = check_outputs(outputs, None).failures
    assert len(failures) == 1 and "conservation residual" in failures[0]


def test_checker_rejects_a_replicate_child_that_differs(outputs):
    def nudge(lines):
        region, value, confidence = lines[1].rstrip("\n").split(",")
        lines[1] = f"{region},{float(value) + 1.0},{confidence}\n"
        return lines

    _rewrite(outputs / "output" / "heating_degree_days.csv", nudge)
    failures = check_outputs(outputs, None).failures
    assert len(failures) == 1 and "replicate child" in failures[0]


def test_checker_rejects_a_dropped_lau_row(outputs):
    _rewrite(outputs / "output" / "households_ghg.csv", lambda lines: lines[:5] + lines[6:])
    failures = check_outputs(outputs, None).failures
    assert any("households_ghg" in f and "covers 159 of 160 LAU" in f for f in failures)


def test_checker_rejects_a_changed_digest(outputs):
    report = outputs / "output" / "imputed" / "employment_report.json"
    report.write_text(report.read_text(encoding="utf-8") + " ", encoding="utf-8")
    failures = check_outputs(outputs, stored_digests("tiny", DEFAULT_SEED)).failures
    assert failures == ["output imputed/employment_report.json: sha256 differs from stored"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

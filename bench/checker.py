"""Independent checks of a finished project's outputs.

The checker reads the project's own input files and regio's output files
with the ``csv`` and ``json`` modules only; it does not import regio, so a
defect in regio's readers cannot hide a defect in its writers. Each check
is one operation: it passes or adds one failure message.

- Conservation: per source region, the output children sum to the source
  value within ``MAX_RESIDUAL`` (relative; the paper's contract).
- ``replicate`` children equal their parent exactly.
- Every target and imputed CSV covers its full scope with finite values.
- Observed values come through imputation unchanged, graded VERY_HIGH.
- At a workload's default seed, every output file the seed code writes has
  the sha256 stored in ``digests.json``. Files not listed there (outputs
  added later) are not checked.

Record the digests for a workload with
``python3 bench/checker.py record --workload impute-4k``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
MAX_RESIDUAL = 1e-9

LEVELS = ("NUTS0", "NUTS1", "NUTS2", "NUTS3", "LAU")


@dataclass
class CheckResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    max_residual: float = 0.0
    min_r2_val: float | None = None

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row]


def _read_series(path: Path) -> dict[str, float | None]:
    """``region,value`` input file; an empty cell is missing (None)."""
    return {r: (float(v) if v.strip() else None) for r, v in _read_csv(path)[1:]}


def _read_output(path: Path) -> dict[str, tuple[float, str]]:
    """``region,value,confidence`` file written by regio; raises on bad rows."""
    rows = _read_csv(path)
    if rows[0] != ["region", "value", "confidence"]:
        raise ValueError(f"{path.name}: bad header {rows[0]}")
    out = {}
    for region, value, confidence in rows[1:]:
        if region in out:
            raise ValueError(f"{path.name}: duplicate region {region}")
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"{path.name}: non-finite value at {region}")
        out[region] = (number, confidence)
    return out


class Project:
    """The inputs of a generated project, as plain dictionaries."""

    def __init__(self, root: Path):
        self.root = root
        self.config = json.loads((root / "config.json").read_text(encoding="utf-8"))
        self.parent: dict[str, str] = {}
        self.level: dict[str, str] = {}
        self.scope: dict[str, set[str]] = {lvl: set() for lvl in LEVELS}
        for code, level, parent, _country in _read_csv(root / self.config["hierarchy"])[1:]:
            self.level[code] = level
            self.parent[code] = parent
            self.scope[level].add(code)
        registry = json.loads((root / self.config["registry"]).read_text(encoding="utf-8"))
        self.var_level = {v["id"]: v["level"] for v in registry["variables"]}
        series_dir = root / self.config["series_dir"]
        self.series = {vid: _read_series(series_dir / f"{vid}.csv") for vid in self.var_level}
        pipeline = json.loads((root / self.config["pipeline"]).read_text(encoding="utf-8"))
        self.tasks = [
            (t["target_id"], t["source_level"], t.get("mode", "allocate"))
            for stage in pipeline["stages"]
            for t in stage["tasks"]
        ]
        self.output = root / self.config["output_dir"]

    def ancestor(self, code: str, level: str) -> str:
        while self.level[code] != level:
            code = self.parent[code]
        return code

    def imputed_variables(self) -> list[str]:
        return sorted(
            vid for vid, values in self.series.items()
            if self.var_level[vid] != "NUTS0"
            and (None in values.values() or len(values) < len(self.scope[self.var_level[vid]]))
        )


def check_imputed(project: Project, vid: str, result: CheckResult) -> dict[str, float]:
    """Check one imputed series; returns its completed values for later checks."""
    path = project.output / "imputed" / f"{vid}.csv"
    try:
        rows = _read_output(path)
    except (OSError, ValueError) as exc:
        result.record(False, f"imputed {vid}: {exc}")
        return {}
    scope = project.scope[project.var_level[vid]]
    problems = []
    if set(rows) != scope:
        problems.append(f"covers {len(rows)} of {len(scope)} regions")
    for region, observed in project.series[vid].items():
        if observed is None:
            continue
        value, confidence = rows.get(region, (None, None))
        if value != observed or confidence != "VERY_HIGH":
            problems.append(f"observed {region} changed to {value} {confidence}")
            break
    result.record(not problems, f"imputed {vid}: {'; '.join(problems)}")
    return {r: v for r, (v, _) in rows.items()}


def check_target(
    project: Project, target: str, source_level: str, mode: str,
    sources: dict[str, dict[str, float | None]], result: CheckResult,
) -> None:
    path = project.output / f"{target}.csv"
    try:
        rows = _read_output(path)
    except (OSError, ValueError) as exc:
        result.record(False, f"target {target}: {exc}")
        return
    problems = []
    if set(rows) != project.scope["LAU"]:
        problems.append(f"covers {len(rows)} of {len(project.scope['LAU'])} LAU")
    source = sources[target]
    sums: dict[str, list[float]] = {}
    for region, (value, _) in rows.items():
        if region not in project.level:
            continue
        parent = project.ancestor(region, source_level)
        if mode == "replicate":
            if value != source.get(parent):
                problems.append(f"replicate child {region} is {value}, parent {source.get(parent)}")
                break
        else:
            sums.setdefault(parent, []).append(value)
    for parent, values in sums.items():
        expected = source.get(parent)
        if expected is None:
            problems.append(f"source region {parent} has no value")
            break
        gap = abs(math.fsum(values) - expected)
        residual = gap if expected == 0.0 else gap / abs(expected)
        result.max_residual = max(result.max_residual, residual)
        if not residual <= MAX_RESIDUAL:
            problems.append(f"{parent}: conservation residual {residual:.3g}")
            break
    result.record(not problems, f"target {target}: {'; '.join(problems)}")


def check_reports(project: Project, result: CheckResult) -> None:
    """Every task ran, and every configured comparison has one finite row per
    reference region."""
    try:
        tasks = json.loads((project.output / "run_report.json").read_text(encoding="utf-8"))
        skipped = [t["target_id"] for t in tasks["tasks"] if t["status"] != "ok"]
    except (OSError, ValueError, KeyError) as exc:
        skipped = [f"unreadable run_report.json ({exc})"]
    result.record(not skipped, f"run_report: tasks not ok: {skipped}")
    reference_dir = project.root / project.config["reference_dir"]
    for spec in project.config["comparisons"]:
        path = project.output / "validation" / f"deviation_{spec['target_id']}.csv"
        expected = len(_read_csv(reference_dir / spec["reference"])) - 1
        try:
            rows = _read_csv(path)[1:]
            ok = len(rows) == expected and all(
                math.isfinite(float(c)) for row in rows for c in row[1:]
            )
        except (OSError, ValueError):
            ok = False
        result.record(ok, f"validation {path.name}: expected {expected} finite rows")


def output_digests(output: Path) -> dict[str, str]:
    return {
        path.relative_to(output).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(output.rglob("*"))
        if path.is_file()
    }


def check_digests(project: Project, expected: dict[str, str], result: CheckResult) -> None:
    actual = output_digests(project.output)
    for name, digest in sorted(expected.items()):
        result.record(actual.get(name) == digest, f"output {name}: sha256 differs from stored")


def stored_digests(workload: str, seed: int) -> dict[str, str] | None:
    """The recorded output digests of a workload, if ``seed`` is its default."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    entry = recorded.get(workload)
    return entry["files"] if entry is not None and entry["seed"] == seed else None


def check_outputs(project_dir: str | Path, digests: dict[str, str] | None) -> CheckResult:
    """Run every check on a project whose four stages have finished; compare
    output digests too when ``digests`` is given."""
    project = Project(Path(project_dir))
    result = CheckResult()
    sources = dict(project.series)
    for vid in project.imputed_variables():
        sources[vid] = check_imputed(project, vid, result)
    for target, source_level, mode in project.tasks:
        check_target(project, target, source_level, mode, sources, result)

    check_reports(project, result)
    r2_values = []
    for path in sorted((project.output / "imputed").glob("*_report.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        if report.get("r2_val") is not None:
            r2_values.append(report["r2_val"])
    result.min_r2_val = min(r2_values) if r2_values else None

    if digests is not None:
        check_digests(project, digests, result)
    return result


def record(workload: str) -> None:
    """Run the four stages at the default seed and store the output digests."""
    from project import DEFAULT_SEED, WORKLOADS, write_project

    work = HERE.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        config = write_project(workload, DEFAULT_SEED, tmp)
        for stage in ("check", "impute", "disaggregate", "validate"):
            subprocess.run(
                [sys.executable, "-m", "regio.cli", stage, "--config", str(config),
                 "--jobs", str(WORKLOADS[workload].jobs)],
                check=True, stdout=subprocess.DEVNULL,
                env={"PYTHONPATH": str(HERE.parent / "src"), "PATH": ""},
            )
        result = check_outputs(tmp, None)
        if result.failures:
            raise SystemExit("outputs fail the checks:\n" + "\n".join(result.failures))
        digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        digests[workload] = {
            "seed": DEFAULT_SEED,
            "files": output_digests(Path(tmp) / "output"),
        }
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record output digests")
    parser.add_argument("command", choices=("record",))
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    record(args.workload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

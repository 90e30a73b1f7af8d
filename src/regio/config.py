"""Project configuration: one JSON file naming every input of a batch run.

Relative paths resolve against the config file's directory, so a project
folder can be copied or mounted anywhere. The variable registry maps
snake_case identifiers to series metadata (description, unit, level,
country scope) and to the CSV file carrying the observations.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonNumericValue, RegioError, UnknownLevel
from .hierarchy import RegionHierarchy, SpatialLevel
from .imputation import GridSpec, ImputationConfig
from .series import (
    ALL_COUNTRIES,
    ConfidenceLevel,
    SeriesMeta,
    VariableSeries,
    VariableStore,
    _fast_columns,
    _region_rows,
    _sorted_series,
    ingest_series,
)

REFERENCE_HEADERS = (["region", "value"], ["region", "value", "label"])


@dataclass(frozen=True)
class RegistryEntry:
    meta: SeriesMeta
    filename: str


@dataclass(frozen=True)
class ComparisonSpec:
    target_id: str
    reference: str
    level: SpatialLevel


@dataclass
class ProjectConfig:
    root: Path
    hierarchy_path: Path
    series_dir: Path
    registry_path: Path
    pipeline_path: Path
    output_dir: Path
    proxy_assignments_path: Path | None = None
    reference_dir: Path | None = None
    comparisons: list[ComparisonSpec] = field(default_factory=list)
    seed: int = 0
    weights_on_raw: bool = False
    normalize_scope: str = "country"
    imputation_overrides: dict = field(default_factory=dict)

    def imputation_config(self, seed: int | None = None) -> ImputationConfig:
        over = self.imputation_overrides
        grid = GridSpec(
            n_estimators=tuple(over.get("n_estimators", GridSpec.n_estimators)),
            learning_rates=tuple(over.get("learning_rates", GridSpec.learning_rates)),
            max_depths=tuple(over.get("max_depths", GridSpec.max_depths)),
        )
        return ImputationConfig(
            thresholds=tuple(over.get("thresholds", (0.1, 0.5))),
            grid=grid,
            seed=self.seed if seed is None else seed,
        )


def read_json(path: Path, what: str):
    """Parse a JSON input file; a missing file or bad JSON is a ConfigError."""
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        with path.open(encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _string(value, where: str) -> str:
    """``value`` if it is a string, else a ConfigError naming ``where``."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


# key -> (test every entry must pass, what the entries must be)
IMPUTATION_OVERRIDES = {
    "thresholds": (_is_number, "finite numbers"),
    "learning_rates": (lambda v: _is_number(v) and 0.0 < v <= 1.0, "numbers in (0, 1]"),
    "n_estimators": (lambda v: _is_int(v) and v >= 0, "integers >= 0"),
    "max_depths": (lambda v: _is_int(v) and v >= 1, "integers >= 1"),
}


def _imputation_overrides(path: Path, overrides) -> dict:
    """Check the ``imputation`` object: every key must be a known one and,
    when given, a non-empty list of valid entries."""
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path}: 'imputation' must be an object")
    for key in overrides:
        if key not in IMPUTATION_OVERRIDES:
            raise ConfigError(
                f"{path}: imputation.{key} is not a known key "
                f"(known: {', '.join(IMPUTATION_OVERRIDES)})"
            )
    for key, (valid, what) in IMPUTATION_OVERRIDES.items():
        if key not in overrides:
            continue
        values = overrides[key]
        if not isinstance(values, list) or not values or not all(map(valid, values)):
            raise ConfigError(
                f"{path}: imputation.{key} must be a non-empty list of {what}, got {values!r}"
            )
    return overrides


def load_project_config(path: str | Path) -> ProjectConfig:
    path = Path(path)
    doc = read_json(path, "config file")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    root = path.parent

    def resolve(key: str, required: bool = True) -> Path | None:
        value = doc.get(key)
        if value is None:
            if required:
                raise ConfigError(f"{path}: missing required key {key!r}")
            return None
        _string(value, f"{path}: {key}")
        return (root / value).resolve() if not Path(value).is_absolute() else Path(value)

    entries = doc.get("comparisons", [])
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: 'comparisons' must be a list")
    comparisons = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: comparison #{i} is not an object")
        for key in ("target_id", "reference"):
            _string(entry.get(key, ""), f"{path}: comparison #{i}: {key}")
        try:
            comparisons.append(
                ComparisonSpec(
                    target_id=entry["target_id"],
                    reference=entry["reference"],
                    level=SpatialLevel.from_token(entry["level"]),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"{path}: comparison #{i} missing {exc}") from None
        except UnknownLevel as exc:
            raise ConfigError(f"{path}: comparison #{i}: {exc}") from None

    flags = doc.get("flags", {})
    if not isinstance(flags, dict):
        raise ConfigError(f"{path}: 'flags' must be an object")
    for key in flags:
        if key not in ("weights_on_raw", "normalize_scope"):
            raise ConfigError(
                f"{path}: flags.{key} is not a known key (known: weights_on_raw, normalize_scope)"
            )
    weights_on_raw = flags.get("weights_on_raw", False)
    if not isinstance(weights_on_raw, bool):
        raise ConfigError(
            f"{path}: flags.weights_on_raw must be true or false, got {weights_on_raw!r}"
        )
    normalize_scope = flags.get("normalize_scope", "country")
    if normalize_scope not in ("country", "parent"):
        raise ConfigError(f"{path}: flags.normalize_scope must be 'country' or 'parent'")
    seed = doc.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError(f"{path}: seed must be an integer, got {seed!r}")

    return ProjectConfig(
        root=root,
        hierarchy_path=resolve("hierarchy"),
        series_dir=resolve("series_dir"),
        registry_path=resolve("registry"),
        pipeline_path=resolve("pipeline"),
        output_dir=resolve("output_dir"),
        proxy_assignments_path=resolve("proxy_assignments", required=False),
        reference_dir=resolve("reference_dir", required=False),
        comparisons=comparisons,
        seed=seed,
        weights_on_raw=weights_on_raw,
        normalize_scope=normalize_scope,
        imputation_overrides=_imputation_overrides(path, doc.get("imputation", {})),
    )


def load_registry(path: str | Path) -> list[RegistryEntry]:
    path = Path(path)
    doc = read_json(path, "variable registry")
    entries = doc.get("variables", doc) if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: expected a list of variable entries")
    out = []
    seen = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: variable #{i} is not an object")
        try:
            vid = entry["id"]
            level = SpatialLevel.from_token(entry["level"])
        except KeyError as exc:
            raise ConfigError(f"{path}: variable #{i} missing {exc}") from None
        except UnknownLevel as exc:
            raise ConfigError(f"{path}: variable #{i}: {exc}") from None
        # formulas can only reference snake_case identifiers
        if not isinstance(vid, str) or not re.fullmatch(r"[a-z][a-z0-9_]*", vid):
            raise ConfigError(f"{path}: variable id {vid!r} is not snake_case")
        if vid in seen:
            raise ConfigError(f"{path}: duplicate variable id {vid!r}")
        for key in ("description", "unit", "country_scope", "file"):
            _string(entry.get(key, ""), f"{path}: variable #{i}: {key}")
        seen.add(vid)
        meta = SeriesMeta(
            variable_id=vid,
            description=entry.get("description", ""),
            unit=entry.get("unit", ""),
            level=level,
            country_scope=entry.get("country_scope", ALL_COUNTRIES),
        )
        out.append(RegistryEntry(meta, entry.get("file", f"{vid}.csv")))
    return out


def ingest_registry(
    config: ProjectConfig, hierarchy: RegionHierarchy, registry: list[RegistryEntry]
) -> tuple[VariableStore, list[RegioError]]:
    """Ingest every registry series that loads; return the store and one
    error per series that did not."""
    store = VariableStore()
    errors: list[RegioError] = []
    for entry in registry:
        series_path = config.series_dir / entry.filename
        try:
            if not series_path.is_file():
                raise ConfigError(f"series file not found: {series_path}")
            store.add(ingest_series(series_path, entry.meta, hierarchy))
        except RegioError as exc:
            errors.append(exc)
    return store, errors


def build_store(
    config: ProjectConfig,
    hierarchy: RegionHierarchy,
    registry: list[RegistryEntry] | None = None,
) -> VariableStore:
    """Ingest every registry series from the series directory; raises the
    first series' error."""
    registry = registry if registry is not None else load_registry(config.registry_path)
    store, errors = ingest_registry(config, hierarchy, registry)
    if errors:
        raise errors[0]
    return store


def read_reference_csv(
    path: str | Path, hierarchy: RegionHierarchy, level: SpatialLevel
) -> tuple[VariableSeries, dict[str, str]]:
    """Reference inventory CSV: ``region,value`` plus an optional free-text
    ``label`` column; joining is by region code only, never by label.

    Every row needs a finite value for a distinct region at ``level``.
    """
    path = Path(path)
    meta = SeriesMeta("reference", "", "", level)
    fast = _fast_columns(path, REFERENCE_HEADERS, hierarchy._codes[level])
    if fast is not None and not np.isnan(fast[1]).any():  # every value given
        regions, values, columns = fast
        grades = np.full(len(regions), int(ConfidenceLevel.VERY_HIGH))
        labels = zip(regions, map(str.strip, columns[2])) if len(columns) > 2 else ()
        return (
            _sorted_series(meta, hierarchy, regions, values, grades),
            {region: label for region, label in labels if label},
        )
    scope = set(hierarchy.regions_at(level))
    labels: dict[str, str] = {}
    values: dict[str, float] = {}
    for lineno, region, value, row in _region_rows(path, REFERENCE_HEADERS, meta, scope):
        if value is None:
            raise NonNumericValue(f"{path}:{lineno}: empty value for {region!r}")
        values[region] = value
        if len(row) > 2 and row[2].strip():
            labels[region] = row[2].strip()
    return VariableSeries.from_values("reference", level, values), labels

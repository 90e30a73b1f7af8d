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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import ConfigError, RegioError
from .hierarchy import RegionHierarchy, SpatialLevel
from .imputation import GridSpec, ImputationConfig
from .series import (
    ALL_COUNTRIES,
    SeriesMeta,
    VariableSeries,
    VariableStore,
    _region_columns,
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
    hierarchy_path: Path
    series_dir: Path
    registry_path: Path
    pipeline_path: Path
    output_dir: Path
    proxy_assignments_path: Path | None
    reference_dir: Path | None
    comparisons: list[ComparisonSpec]
    seed: int
    weights_on_raw: bool
    normalize_scope: str
    imputation_overrides: dict

    def imputation_config(self, seed: int) -> ImputationConfig:
        over = self.imputation_overrides
        grid = GridSpec(
            n_estimators=tuple(over.get("n_estimators", GridSpec.n_estimators)),
            learning_rates=tuple(over.get("learning_rates", GridSpec.learning_rates)),
            max_depths=tuple(over.get("max_depths", GridSpec.max_depths)),
        )
        return ImputationConfig(
            thresholds=tuple(over.get("thresholds", ImputationConfig.thresholds)),
            grid=grid,
            seed=seed,
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


def _fields(obj, where: str, checks: dict, required: Iterable[str] = ()) -> dict:
    """The checked values of the JSON object ``obj`` by key, for the keys it
    holds. ``checks`` maps every key the object may hold to its check,
    ``check(value, where)``, which returns the value to use or raises a
    RegioError whose message starts with ``where`` (the file, the entry and
    the key). A value that is not an object, a key outside ``checks`` and a
    missing ``required`` key raise a ConfigError naming ``where``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    for key in obj:
        if key not in checks:
            raise ConfigError(f"{where}: {key} is not a known key (known: {', '.join(checks)})")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing required key {key!r}")
    return {key: checks[key](value, f"{where}: {key}") for key, value in obj.items()}


def _check(test, what: str, convert=None):
    """The check that passes a value ``test`` accepts (``convert(value)`` when
    ``convert`` is given) and rejects any other as not ``what``."""

    def check(value, where: str):
        if not test(value):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return value if convert is None else convert(value)

    return check


def _token(members: dict):
    """The check that maps one of the string keys of ``members`` to its value."""
    return _check(lambda v: isinstance(v, str) and v in members,
                  f"one of {'|'.join(members)}", members.__getitem__)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(valid, what: str):
    return _check(lambda v: isinstance(v, list) and v and all(map(valid, v)),
                  f"a non-empty list of {what}")


_string = _check(lambda v: isinstance(v, str), "a string")
_list = _check(lambda v: isinstance(v, list), "a list")
_level = _token(SpatialLevel.__members__)
# Path.resolve raises ValueError on a NUL character
_path = _check(lambda v: isinstance(v, str) and "\0" not in v, "a string without NUL", Path)

COMPARISON_KEYS = {"target_id": _string, "reference": _string, "level": _level}
FLAG_KEYS = {
    "weights_on_raw": _check(lambda v: isinstance(v, bool), "true or false"),
    "normalize_scope": _token({"country": "country", "parent": "parent"}),
}
IMPUTATION_KEYS = {
    "thresholds": _list_of(_is_number, "finite numbers"),
    "learning_rates": _list_of(lambda v: _is_number(v) and 0.0 < v <= 1.0, "numbers in (0, 1]"),
    "n_estimators": _list_of(lambda v: _is_int(v) and v >= 0, "integers >= 0"),
    "max_depths": _list_of(lambda v: _is_int(v) and v >= 1, "integers >= 1"),
}
REQUIRED_CONFIG_KEYS = ("hierarchy", "series_dir", "registry", "pipeline", "output_dir")
CONFIG_KEYS = {
    "hierarchy": _path, "series_dir": _path, "registry": _path, "pipeline": _path,
    "output_dir": _path, "proxy_assignments": _path, "reference_dir": _path,
    "comparisons": _list,
    "seed": _check(_is_int, "an integer"),
    "flags": lambda value, where: _fields(value, where, FLAG_KEYS),
    "imputation": lambda value, where: _fields(value, where, IMPUTATION_KEYS),
}
VARIABLE_KEYS = {
    # formulas can only reference snake_case identifiers
    "id": _check(lambda v: isinstance(v, str) and re.fullmatch(r"[a-z][a-z0-9_]*", v),
                 "a snake_case identifier"),
    "level": _level, "description": _string, "unit": _string, "country_scope": _string,
    "file": _string,
}


def _entries(path: Path, what: str, key: str) -> list:
    """The entries of a JSON document that is a list, or an object holding
    the list under ``key``."""
    doc = read_json(path, what)
    if isinstance(doc, dict):
        doc = _fields(doc, str(path), {key: _list}, (key,))[key]
    return _list(doc, str(path))


def load_project_config(path: str | Path) -> ProjectConfig:
    path = Path(path)
    doc = _fields(read_json(path, "config file"), str(path), CONFIG_KEYS, REQUIRED_CONFIG_KEYS)
    paths = {  # the _path values, relative ones taken from the config file's directory
        key: value if value.is_absolute() else (path.parent / value).resolve()
        for key, value in doc.items() if isinstance(value, Path)
    }
    out = paths["output_dir"].resolve()
    for key in ("series_dir", "reference_dir"):  # the folders regio writes into
        if key in paths and paths[key].resolve() in (out, out / "imputed", out / "validation"):
            raise ConfigError(f"{path}: output_dir would overwrite the {key} ({paths[key]})")
    comparisons: list[ComparisonSpec] = []
    first: dict[str, int] = {}  # target -> its comparison's number
    for i, entry in enumerate(doc.get("comparisons", [])):
        where = f"{path}: comparison #{i}"
        spec = ComparisonSpec(**_fields(entry, where, COMPARISON_KEYS, COMPARISON_KEYS))
        # each comparison writes validation/deviation_<target>.csv
        if first.setdefault(spec.target_id, i) != i:
            raise ConfigError(
                f"{where}: target {spec.target_id!r} is already compared by "
                f"comparison #{first[spec.target_id]}"
            )
        comparisons.append(spec)
    flags = doc.get("flags", {})
    return ProjectConfig(
        hierarchy_path=paths["hierarchy"],
        series_dir=paths["series_dir"],
        registry_path=paths["registry"],
        pipeline_path=paths["pipeline"],
        output_dir=paths["output_dir"],
        proxy_assignments_path=paths.get("proxy_assignments"),
        reference_dir=paths.get("reference_dir"),
        comparisons=comparisons,
        seed=doc.get("seed", 0),
        weights_on_raw=flags.get("weights_on_raw", False),
        normalize_scope=flags.get("normalize_scope", "country"),
        imputation_overrides=doc.get("imputation", {}),
    )


def load_registry(path: str | Path) -> list[RegistryEntry]:
    path = Path(path)
    out: dict[str, RegistryEntry] = {}
    for i, entry in enumerate(_entries(path, "variable registry", "variables")):
        where = f"{path}: variable #{i}"
        fields = _fields(entry, where, VARIABLE_KEYS, ("id", "level"))
        vid = fields["id"]
        if vid in out:
            raise ConfigError(f"{where}: duplicate variable id {vid!r}")
        meta = SeriesMeta(
            variable_id=vid,
            description=fields.get("description", ""),
            unit=fields.get("unit", ""),
            level=fields["level"],
            country_scope=fields.get("country_scope", ALL_COUNTRIES),
        )
        out[vid] = RegistryEntry(meta, fields.get("file", f"{vid}.csv"))
    return list(out.values())


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
    regions, values, grades, columns = _region_columns(
        path, REFERENCE_HEADERS, meta, hierarchy._codes[level], required=True)
    labels = zip(regions, columns[2]) if len(columns) > 2 else ()
    return (
        _sorted_series(meta, hierarchy, regions, values, grades),
        {region: label for region, label in labels if label},
    )

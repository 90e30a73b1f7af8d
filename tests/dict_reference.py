"""The dict-based series code that the columnar VariableSeries replaced.

Here a series holds one ``(value, confidence)`` record per region, and
``evaluate``, ``allocate``, ``disaggregate``, ``conservation_residuals`` and
``aggregate`` are the per-region loops regio ran before its series became
columns. Tests run both on the same inputs and require equal results.

One rule differs from those loops: a child's share is divided by the same
left-to-right weight total that ``allocate`` divides by. The loops took it
from the builtin ``sum``, which is compensated from CPython 3.12 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from regio.errors import (
    EmptyChildSet,
    LevelMismatch,
    MissingValue,
    NegativeProxyValue,
    NonFiniteValue,
    UnresolvedVariable,
)
from regio.formulas import Const, Sum, Var, variables
from regio.series import ConfidenceLevel


@dataclass
class DictSeries:
    variable_id: str
    level: object
    observations: dict  # region -> (value or None, ConfidenceLevel or None)

    @classmethod
    def of(cls, series) -> "DictSeries":
        return cls(
            series.variable_id,
            series.level,
            {r: (o.value, o.confidence) for r, o in series.observations.items()},
        )

    def regions(self):
        return sorted(self.observations)

    def missing_regions(self):
        return sorted(r for r, (v, _) in self.observations.items() if v is None)

    def value(self, region):
        value, _ = self.observations.get(region, (None, None))
        if value is None:
            raise MissingValue(f"{self.variable_id}: value for {region!r} is missing")
        return value

    def confidence(self, region):
        _, conf = self.observations.get(region, (None, None))
        if conf is None:
            raise MissingValue(f"{self.variable_id}: no confidence for {region!r}")
        return conf

    def values(self, regions):
        return np.array([self.value(r) for r in regions], dtype=float)


def _scope_values(series, scope):
    values = series.values(scope)
    if np.any(values < 0):
        raise NegativeProxyValue(f"{series.variable_id}: negative proxy value")
    return values


def _normalized(values):
    peak = values.max() if values.size else 0.0
    if peak == 0.0:
        return np.zeros_like(values)
    return values / peak


def evaluate(expr, env, scope, weights_on_raw=False):
    names = variables(expr)
    level = None
    arrays = {}
    for name in names:
        series = env.get(name)
        if series is None:
            raise UnresolvedVariable(name)
        if level is None:
            level = series.level
        elif series.level != level:
            raise LevelMismatch(name)
        raw = _scope_values(series, scope)
        arrays[name] = raw if weights_on_raw else _normalized(raw)

    def walk(node):
        if isinstance(node, Var):
            return arrays[node.name]
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Sum):
            total = walk(node.terms[0])
            for term in node.terms[1:]:
                total = total + walk(term)
            return total
        product = walk(node.factors[0])
        for factor in node.factors[1:]:
            product = product * walk(factor)
        return product

    values = np.asarray(walk(expr), dtype=float)
    if weights_on_raw:
        values = _normalized(values)
    confidences = [min(env[name].confidence(region) for name in names) for region in scope]
    observations = {
        region: (float(v), conf) for region, v, conf in zip(scope, values, confidences)
    }
    return DictSeries("composite_proxy", level, observations)


def allocate(parent_value, weights):
    if not weights:
        raise EmptyChildSet("cannot allocate to an empty child set")
    total = 0.0
    for child, weight in weights.items():
        if not math.isfinite(weight):
            raise NonFiniteValue(child)
        if weight < 0:
            raise NegativeProxyValue(child)
        total += weight
    if total == 0.0:
        share = parent_value / len(weights)
        return {child: share for child in weights}
    return {child: parent_value * w / total for child, w in weights.items()}


def disaggregate(task, source, hierarchy, env, normalize_scope="country", weights_on_raw=False):
    """Returns (observations, provenance): region -> (value, confidence) and
    region -> (source region, share or None, fallback)."""
    if source.missing_regions():
        raise MissingValue(f"{task.target_id}: source series has missing values")
    observations = {}
    provenance = {}
    by_country = {}
    for region in source.regions():
        by_country.setdefault(hierarchy.node(region).country, []).append(region)
    for country in sorted(by_country):
        country_proxy = None
        if task.mode == "allocate" and normalize_scope == "country":
            scope = hierarchy.regions_at(task.output_level, country)
            country_proxy = evaluate(task.formula, env, scope, weights_on_raw)
        for parent in by_country[country]:
            children = hierarchy.descendants(parent, task.output_level)
            parent_value = source.value(parent)
            if task.mode == "replicate":
                conf = min(task.assignment_confidence, source.confidence(parent))
                for child in children:
                    observations[child] = (parent_value, conf)
                    provenance[child] = (parent, None, False)
                continue
            proxy = country_proxy
            if proxy is None:
                proxy = evaluate(task.formula, env, children, weights_on_raw)
            weights = {child: proxy.value(child) for child in children}
            allocated = allocate(parent_value, weights)
            total = 0.0
            for weight in weights.values():
                total += weight
            fallback = total == 0.0
            for child in children:
                if fallback:
                    conf = ConfidenceLevel.VERY_LOW
                    share = 1.0 / len(children)
                else:
                    conf = min(task.assignment_confidence, proxy.confidence(child))
                    share = weights[child] / total
                observations[child] = (allocated[child], conf)
                provenance[child] = (parent, share, fallback)
    return observations, provenance


def conservation_residuals(observations, provenance, source):
    sums = {}
    for region, (parent, _, _) in provenance.items():
        sums[parent] = sums.get(parent, 0.0) + observations[region][0]
    residuals = {}
    for parent, total in sums.items():
        value = source.value(parent)
        gap = abs(total - value)
        residuals[parent] = gap if value == 0.0 else gap / abs(value)
    return residuals


def aggregate(series, hierarchy, target):
    """Partial aggregation: missing regions are skipped."""
    sums = {}
    confs = {}
    for region in series.regions():
        value, conf = series.observations[region]
        if value is None:
            continue
        parent = hierarchy.ancestor(region, target)
        sums[parent] = sums.get(parent, 0.0) + value
        confs[parent] = min(confs.get(parent, conf), conf)
    return {r: (sums[r], confs[r]) for r in sums}

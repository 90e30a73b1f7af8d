"""Composite-proxy formula language: parsing, normalization, evaluation.

Grammar (whitespace insignificant):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := NUMBER | IDENT | '(' expr ')'
    IDENT  := snake_case identifier, e.g. road_network
    NUMBER := nonnegative decimal, e.g. 3.83

'*' binds tighter than '+'; both operators are associative and are flattened
into n-ary Sum/Prod nodes. Numeric literals are scalar weights and are only
legal as multiplicative factors; an expression must reference at least one
variable.

Evaluation max-normalizes every referenced variable over the evaluation
scope first (zeros preserved, maximum maps to 1.0), so operands are
dimensionless and mixed-unit sums are meaningful. Scalar weights therefore
apply to normalized values; ``weights_on_raw=True`` instead evaluates on raw
values and max-normalizes the composite result, for sensitivity runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .config import _string, read_json
from .errors import (
    ConfigError,
    FormulaSyntaxError,
    LevelMismatch,
    NegativeCap,
    NegativeProxyValue,
    UnknownLevel,
    UnresolvedVariable,
)
from .hierarchy import SpatialLevel
from .series import ConfidenceLevel, VariableSeries, _run_starts


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Sum:
    terms: tuple["ProxyExpr", ...]


@dataclass(frozen=True)
class Prod:
    factors: tuple["ProxyExpr", ...]


ProxyExpr = Union[Var, Const, Sum, Prod]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<ident>[a-z][a-z0-9_]*)|(?P<op>[+*()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise FormulaSyntaxError(f"unexpected character {text[where]!r}", where)
        for kind in ("number", "ident", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value, match.start(kind)))
                break
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self):
        token = self.peek()
        if token is not None:
            self.index += 1
        return token

    def fail(self, message: str):
        token = self.peek()
        position = token[2] if token is not None else len(self.text)
        raise FormulaSyntaxError(message, position)

    def parse(self) -> ProxyExpr:
        expr = self.expr()
        if self.peek() is not None:
            self.fail(f"unexpected token {self.peek()[1]!r}")
        return expr

    def expr(self) -> ProxyExpr:
        terms = [self.term()]
        while self.peek() is not None and self.peek()[1] == "+":
            self.take()
            terms.append(self.term())
        if len(terms) == 1:
            return terms[0]
        flat: list[ProxyExpr] = []
        for term in terms:
            flat.extend(term.terms if isinstance(term, Sum) else [term])
        return Sum(tuple(flat))

    def term(self) -> ProxyExpr:
        factors = [self.factor()]
        while self.peek() is not None and self.peek()[1] == "*":
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        flat: list[ProxyExpr] = []
        for factor in factors:
            flat.extend(factor.factors if isinstance(factor, Prod) else [factor])
        return Prod(tuple(flat))

    def factor(self) -> ProxyExpr:
        token = self.peek()
        if token is None:
            self.fail("unexpected end of formula")
        kind, value, position = token
        if kind == "number":
            self.take()
            return Const(float(value))
        if kind == "ident":
            self.take()
            return Var(value)
        if value == "(":
            self.take()
            inner = self.expr()
            closing = self.peek()
            if closing is None or closing[1] != ")":
                self.fail("expected ')'")
            self.take()
            return inner
        self.fail(f"unexpected token {value!r}")


def _check_structure(expr: ProxyExpr, top: bool = True) -> None:
    # Scalar weights must multiply a variable: Const is only legal inside Prod.
    if isinstance(expr, Const):
        raise FormulaSyntaxError("a number must multiply a variable", 0)
    if isinstance(expr, Sum):
        for term in expr.terms:
            _check_structure(term, top=False)
    elif isinstance(expr, Prod):
        if all(isinstance(f, Const) for f in expr.factors):
            raise FormulaSyntaxError("a weight needs a variable to multiply", 0)
        for factor in expr.factors:
            if not isinstance(factor, Const):
                _check_structure(factor, top=False)


def parse(text: str) -> ProxyExpr:
    """Parse a formula string into a flattened n-ary AST."""
    expr = _Parser(text).parse()
    _check_structure(expr)
    return expr


def format_expr(expr: ProxyExpr) -> str:
    """Print an AST; re-parsing the output yields an identical AST."""
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        text = repr(expr.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(expr, Sum):
        return " + ".join(format_expr(t) for t in expr.terms)
    parts = []
    for factor in expr.factors:
        text = format_expr(factor)
        parts.append(f"({text})" if isinstance(factor, Sum) else text)
    return " * ".join(parts)


def variables(expr: ProxyExpr) -> list[str]:
    """Sorted variable identifiers referenced by the expression."""
    found: set[str] = set()

    def walk(node: ProxyExpr) -> None:
        if isinstance(node, Var):
            found.add(node.name)
        elif isinstance(node, Sum):
            for term in node.terms:
                walk(term)
        elif isinstance(node, Prod):
            for factor in node.factors:
                walk(factor)

    walk(expr)
    return sorted(found)


def _normalized(values: np.ndarray, lengths: Sequence[int] | None = None) -> np.ndarray:
    """Each run of ``values`` (one by default) divided by its maximum, or all
    0.0 if that is 0; max is exact in any order, so runs do not interact."""
    if lengths is None:
        lengths = [values.size] if values.size else []
    starts = _run_starts(np.asarray(lengths, np.intp))
    peak = np.repeat(np.maximum.reduceat(values, starts), lengths)
    zero = peak == 0.0
    return np.where(zero, 0.0, values / np.where(zero, 1.0, peak))


def normalize_series(
    series: VariableSeries, scope: Sequence[str] | None = None
) -> VariableSeries:
    """Divide by the maximum over the scope: peak maps to 1.0, zeros stay 0.

    An all-zero scope stays all zero. Negative values are rejected (proxies
    are counts/areas/lengths; a negative indicates upstream corruption).
    Confidences are unchanged.
    """
    regions = list(scope) if scope is not None else series.regions()
    data, grades, _ = combine(
        Var(series.variable_id), {series.variable_id: series},
        lambda s: s._rows(regions), regions.__getitem__,
    )
    return replace(series, unit="dimensionless", codes=regions, data=data, grades=grades)


def evaluate(
    expr: ProxyExpr,
    env: Mapping[str, VariableSeries],
    scope: Sequence[str],
    weights_on_raw: bool = False,
    result_id: str = "composite_proxy",
    lengths: Sequence[int] | None = None,
) -> VariableSeries:
    """Evaluate a proxy expression element-wise over the scope regions.

    ``lengths`` splits ``scope`` into non-empty runs (one run by default),
    each normalized on its own, as if evaluated by a call of its own. Result
    confidence per region is the minimum over the confidences of all
    referenced variables' observations in that region.

    Each variable is aligned with ``scope`` by looking the codes up in the
    series. ``disaggregate`` runs the same ``combine`` kernel on hierarchy
    positions instead, with no code lookup for a series that holds its
    level's whole code tuple.
    """
    scope = list(scope)
    values, grades, first = combine(
        expr, env, lambda s: s._rows(scope), scope.__getitem__, weights_on_raw, lengths
    )
    return VariableSeries(
        result_id, format_expr(expr), "dimensionless", first.level,
        first.country_scope, scope, values, grades,
    )


def combine(
    expr: ProxyExpr,
    env: Mapping[str, VariableSeries],
    rows: Callable[[VariableSeries], np.ndarray],
    region: Callable[[int], str],
    weights_on_raw: bool = False,
    lengths: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, VariableSeries]:
    """The proxy of ``expr`` over a scope, as ``(values, grades, the series
    of the first variable)`` aligned with the scope.

    ``rows(series)`` gives, for each scope region, its row in ``series``
    (-1 where the series has none); ``region(i)`` names scope region ``i``
    in errors. A scope region with no value in some variable raises
    MissingValue, a negative value NegativeProxyValue; ``lengths`` and
    ``weights_on_raw`` are as in ``evaluate``.
    """
    names = variables(expr)
    if not names:
        raise FormulaSyntaxError("formula references no variable", 0)
    first = None
    arrays: dict[str, np.ndarray] = {}
    grades = None
    for name in names:
        series = env.get(name)
        if series is None:
            raise UnresolvedVariable(f"formula references unknown variable {name!r}")
        if first is None:
            first = series
        elif series.level != first.level:
            raise LevelMismatch(
                f"variable {name!r} is at {series.level.name}, expected {first.level.name}"
            )
        index = rows(series)
        series._require(index, region)
        raw = series.data[index]
        if (raw < 0).any():
            raise NegativeProxyValue(
                f"{series.variable_id}: negative proxy value at {region(int(raw.argmin()))!r}"
            )
        arrays[name] = raw if weights_on_raw else _normalized(raw, lengths)
        grade = series.grades[index]
        grades = grade if grades is None else np.minimum(grades, grade)

    def walk(node: ProxyExpr) -> np.ndarray | float:
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
        values = _normalized(values, lengths)
    return values, grades, first


# -- vehicle emission-standard weighting --------------------------------------

@dataclass(frozen=True)
class EmissionStandardWeights:
    """Per-tier pollutant caps (g/km) and their exact sum used as a weight."""

    tier: str
    co_cap: float
    hc_nox_cap: float
    pm_cap: float
    total: float


def euro_weight_table(
    caps: Sequence[tuple[str, float, float, float]]
) -> list[EmissionStandardWeights]:
    """Sum each tier's CO, HC+NOx and PM caps into a weighting factor.

    Sums are computed in decimal so the totals are exact (e.g. 2.72 + 0.97 +
    0.14 is exactly 3.83).
    """
    table = []
    for tier, co, hc_nox, pm in caps:
        if co < 0 or hc_nox < 0 or pm < 0:
            raise NegativeCap(f"tier {tier!r}: emission caps must be nonnegative")
        total = Decimal(repr(co)) + Decimal(repr(hc_nox)) + Decimal(repr(pm))
        table.append(
            EmissionStandardWeights(tier, float(co), float(hc_nox), float(pm), float(total))
        )
    return table


# Diesel passenger-car caps (g/km) per European emission standard tier.
# Euro 6b/6c/6d-temp/6d/6e share identical caps. The Euro 3 CO cap is 0.64
# (its widely quoted 0.66 variant does not sum to the tier's 1.25 total).
EMISSION_STANDARD_CAPS: tuple[tuple[str, float, float, float], ...] = (
    ("euro_1", 2.72, 0.97, 0.14),
    ("euro_2", 1.0, 0.7, 0.08),
    ("euro_3", 0.64, 0.56, 0.05),
    ("euro_4", 0.50, 0.30, 0.025),
    ("euro_5a", 0.50, 0.230, 0.005),
    ("euro_5b", 0.50, 0.230, 0.0045),
    ("euro_6b", 0.50, 0.170, 0.0045),
    ("euro_6c", 0.50, 0.170, 0.0045),
    ("euro_6d_temp", 0.50, 0.170, 0.0045),
    ("euro_6d", 0.50, 0.170, 0.0045),
    ("euro_6e", 0.50, 0.170, 0.0045),
)

# Vehicle-stock data tiers -> standard tiers. Group 5 is not split into
# 5a/5b in the stock data, so the more lenient 5a applies; the "other"
# group carries no further information and is treated as Euro 1.
STOCK_TIER_TO_STANDARD: dict[str, str] = {
    "euro_1": "euro_1",
    "euro_2": "euro_2",
    "euro_3": "euro_3",
    "euro_4": "euro_4",
    "euro_5": "euro_5a",
    "euro_6r": "euro_6b",
    "euro_6dt": "euro_6d_temp",
    "euro_6d": "euro_6d",
    "euro_other": "euro_1",
}


def passenger_car_weights() -> dict[str, float]:
    """Allocation weight per vehicle-stock emission group (exact cap sums)."""
    totals = {w.tier: w.total for w in euro_weight_table(EMISSION_STANDARD_CAPS)}
    return {stock: totals[std] for stock, std in STOCK_TIER_TO_STANDARD.items()}


# -- proxy assignment documents -------------------------------------------------

ASSIGNMENT_CONFIDENCES = (
    ConfidenceLevel.HIGH,
    ConfidenceLevel.MEDIUM,
    ConfidenceLevel.LOW,
    ConfidenceLevel.VERY_LOW,
)


@dataclass(frozen=True)
class ProxyAssignment:
    target_id: str
    source_level: SpatialLevel
    formula: str
    assignment_confidence: ConfidenceLevel

    @property
    def expr(self) -> ProxyExpr:
        return parse(self.formula)


def load_proxy_assignments(path: str | Path) -> dict[str, ProxyAssignment]:
    """Load the per-target formula/confidence document (JSON list)."""
    path = Path(path)
    doc = read_json(path, "proxy assignment file")
    entries = doc.get("assignments", doc) if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: expected a list of assignments")
    out: dict[str, ProxyAssignment] = {}
    for i, entry in enumerate(entries):
        try:
            target_id = entry["target_id"]
            source_level = entry["source_level"]
            formula = entry["formula"]
            token = entry["assignment_confidence"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: assignment #{i}: {exc}") from None
        for key in ("target_id", "source_level", "formula", "assignment_confidence"):
            _string(entry[key], f"{path}: assignment #{i}: {key}")
        try:
            source_level = SpatialLevel.from_token(source_level)
        except UnknownLevel as exc:
            raise ConfigError(f"{path}: assignment #{i}: source_level: {exc}") from None
        confidence = ConfidenceLevel.__members__.get(token)
        if confidence not in ASSIGNMENT_CONFIDENCES:
            raise ConfigError(
                f"{path}: assignment {target_id!r}: confidence must be one of "
                "HIGH|MEDIUM|LOW|VERY_LOW"
            )
        if target_id in out:
            raise ConfigError(f"{path}: duplicate assignment for {target_id!r}")
        parse(formula)  # fail early with position info
        out[target_id] = ProxyAssignment(target_id, source_level, formula, confidence)
    return out

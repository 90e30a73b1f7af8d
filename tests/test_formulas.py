import numpy as np
import pytest

from regio.errors import (
    FormulaSyntaxError,
    LevelMismatch,
    MissingValue,
    NegativeCap,
    NegativeProxyValue,
    UnresolvedVariable,
)
from regio.formulas import (
    EMISSION_STANDARD_CAPS,
    Const,
    Prod,
    Sum,
    Var,
    euro_weight_table,
    evaluate,
    format_expr,
    normalize_series,
    parse,
    passenger_car_weights,
    variables,
)
from regio.hierarchy import SpatialLevel
from regio.series import ConfidenceLevel, VariableSeries


def series(values, confidence=ConfidenceLevel.VERY_HIGH, vid="x"):
    return VariableSeries.from_values(vid, SpatialLevel.LAU, values, confidence)


class TestParse:
    def test_weighted_sum(self):
        expr = parse("3.83 * euro_1 + 1.78 * euro_2")
        assert expr == Sum(
            (
                Prod((Const(3.83), Var("euro_1"))),
                Prod((Const(1.78), Var("euro_2"))),
            )
        )

    def test_single_variable(self):
        assert parse("population") == Var("population")

    def test_product_binds_tighter(self):
        assert parse("a + b * c") == Sum((Var("a"), Prod((Var("b"), Var("c")))))

    def test_parentheses(self):
        assert parse("a * (b + c)") == Prod((Var("a"), Sum((Var("b"), Var("c")))))

    def test_associative_flattening(self):
        assert parse("a + b + c") == Sum((Var("a"), Var("b"), Var("c")))
        assert parse("a + (b + c)") == Sum((Var("a"), Var("b"), Var("c")))
        assert parse("a * b * c") == Prod((Var("a"), Var("b"), Var("c")))

    def test_whitespace_insignificant(self):
        assert parse(" a+b ") == parse("a + b")

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("a + * b")
        assert err.value.position == 4

    def test_bare_number_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("3.83")

    def test_pure_constant_product_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("2 * 3")

    def test_constant_addend_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("a + 2")

    def test_unclosed_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(a + b")

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError):
            parse("a - b")

    def test_variables_listing(self):
        assert variables(parse("b * a + 2 * c + a")) == ["a", "b", "c"]


class TestRoundTrip:
    @staticmethod
    def random_expr(rng, depth=0):
        names = ["a", "b", "c", "x1"]
        kind = int(rng.integers(0, 3)) if depth < 3 else 0
        if kind == 0:
            return Var(names[int(rng.integers(0, len(names)))])
        if kind == 1:  # Sum of Var/Prod terms
            terms = tuple(
                TestRoundTrip.random_expr(rng, depth + 1)
                if rng.random() < 0.4
                else Var(names[int(rng.integers(0, len(names)))])
                for _ in range(int(rng.integers(2, 4)))
            )
            terms = tuple(t if not isinstance(t, Sum) else Var("a") for t in terms)
            return Sum(terms)
        factors = [Const(float(rng.choice([0.5, 2.0, 3.83])))]
        for _ in range(int(rng.integers(1, 3))):
            if rng.random() < 0.3 and depth < 2:
                sub = TestRoundTrip.random_expr(rng, depth + 1)
                factors.append(sub if isinstance(sub, Sum) else Var("b"))
            else:
                factors.append(Var(names[int(rng.integers(0, len(names)))]))
        return Prod(tuple(factors))

    def test_parse_print_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            expr = self.random_expr(rng)
            assert parse(format_expr(expr)) == expr

    def test_format_example(self):
        assert format_expr(parse("3.83 * a + b * (c + a)")) == "3.83 * a + b * (c + a)"


class TestNormalize:
    def test_basic(self):
        out = normalize_series(series({"A": 2.0, "B": 4.0, "C": 0.0}))
        assert out.value("A") == 0.5
        assert out.value("B") == 1.0
        assert out.value("C") == 0.0

    def test_all_zeros(self):
        out = normalize_series(series({"A": 0.0, "B": 0.0}))
        assert out.value("A") == 0.0 and out.value("B") == 0.0

    def test_single_region(self):
        assert normalize_series(series({"A": 7.0})).value("A") == 1.0

    def test_negative_rejected(self):
        with pytest.raises(NegativeProxyValue):
            normalize_series(series({"A": -1.0, "B": 2.0}))

    def test_confidences_unchanged(self):
        s = series({"A": 1.0, "B": 2.0}, ConfidenceLevel.MEDIUM)
        out = normalize_series(s)
        assert out.confidence("A") == ConfidenceLevel.MEDIUM

    def test_scope_restriction(self):
        out = normalize_series(series({"A": 2.0, "B": 8.0, "C": 4.0}), scope=["A", "C"])
        assert out.value("C") == 1.0
        assert out.value("A") == 0.5
        assert "B" not in out.observations


class TestEvaluate:
    def test_result_is_the_composite_proxy(self):
        out = evaluate(parse("2 * x"), {"x": series({"A": 1.0, "B": 2.0})}, ["A", "B"])
        assert (out.variable_id, out.description, out.unit) == (
            "composite_proxy", "2 * x", "dimensionless"
        )

    def test_var_equals_normalize(self):
        s = series({"A": 3.0, "B": 6.0})
        out = evaluate(Var("x"), {"x": s}, ["A", "B"])
        norm = normalize_series(s)
        assert out.value("A") == norm.value("A")
        assert out.value("B") == norm.value("B")

    def test_sum_of_identical_series(self):
        s = series({"A": 1.0, "B": 2.0})
        out = evaluate(parse("x + y"), {"x": s, "y": s}, ["A", "B"])
        assert out.value("A") == 1.0  # 2 * 0.5
        assert out.value("B") == 2.0

    def test_const_weight(self):
        s = series({"A": 1.0, "B": 2.0})
        out = evaluate(parse("2 * x"), {"x": s}, ["A", "B"])
        assert out.value("A") == 1.0
        assert out.value("B") == 2.0

    def test_confidence_min_rule(self):
        x = series({"A": 1.0, "B": 2.0}, ConfidenceLevel.HIGH, vid="x")
        y = series({"A": 1.0, "B": 2.0}, ConfidenceLevel.MEDIUM, vid="y")
        out = evaluate(parse("x + y"), {"x": x, "y": y}, ["A", "B"])
        assert out.confidence("A") == ConfidenceLevel.MEDIUM
        assert out.confidence("B") == ConfidenceLevel.MEDIUM

    def test_product_formula(self):
        area = series({"A": 10.0, "B": 20.0})
        hdd = series({"A": 3000.0, "B": 1500.0})
        out = evaluate(parse("area * hdd"), {"area": area, "hdd": hdd}, ["A", "B"])
        assert out.value("A") == pytest.approx(0.5 * 1.0)
        assert out.value("B") == pytest.approx(1.0 * 0.5)

    def test_unresolved_variable(self):
        with pytest.raises(UnresolvedVariable):
            evaluate(parse("nope"), {}, ["A"])

    def test_level_mismatch(self):
        x = series({"A": 1.0})
        y = VariableSeries.from_values("y", SpatialLevel.NUTS3, {"A3": 1.0})
        with pytest.raises(LevelMismatch):
            evaluate(parse("x + y"), {"x": x, "y": y}, ["A"])

    def test_missing_value_in_scope(self):
        s = series({"A": 1.0})
        with pytest.raises(MissingValue):
            evaluate(Var("x"), {"x": s}, ["A", "B"])

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        scope = [f"R{i}" for i in range(20)]
        base = {r: float(v) for r, v in zip(scope, rng.uniform(0, 100, 20))}
        other = {r: float(v) for r, v in zip(scope, rng.uniform(0, 50, 20))}
        expr = parse("3.83 * x + 0.5 * y")
        env = {"x": series(base, vid="x"), "y": series(other, vid="y")}
        ref = evaluate(expr, env, scope)
        for k in [1e-6, 0.37, 2.0, 1e6]:
            env_scaled = {
                "x": series({r: k * v for r, v in base.items()}, vid="x"),
                "y": env["y"],
            }
            out = evaluate(expr, env_scaled, scope)
            for r in scope:
                assert out.value(r) == pytest.approx(ref.value(r), rel=1e-12)

    def test_weights_on_raw_mode(self):
        # raw combine then a final max-normalization of the composite
        x = series({"A": 1.0, "B": 3.0}, vid="x")
        out = evaluate(parse("2 * x"), {"x": x}, ["A", "B"], weights_on_raw=True)
        assert out.value("B") == 1.0
        assert out.value("A") == pytest.approx(1.0 / 3.0)


class TestProxyAssignments:
    def write(self, tmp_path, entries):
        import json

        path = tmp_path / "assignments.json"
        path.write_text(json.dumps({"assignments": entries}))
        return path

    def entry(self, **over):
        base = {
            "target_id": "transport_fec",
            "source_level": "NUTS0",
            "formula": "3.83 * euro_1 + 1.78 * euro_2",
            "assignment_confidence": "HIGH",
        }
        base.update(over)
        return base

    def test_round_trip(self, tmp_path):
        from regio.formulas import load_proxy_assignments

        loaded = load_proxy_assignments(self.write(tmp_path, [self.entry()]))
        assignment = loaded["transport_fec"]
        assert assignment.assignment_confidence == ConfidenceLevel.HIGH
        assert assignment.formula == parse("3.83 * euro_1 + 1.78 * euro_2")

    def test_duplicate_target_rejected(self, tmp_path):
        from regio.errors import ConfigError
        from regio.formulas import load_proxy_assignments

        with pytest.raises(ConfigError):
            load_proxy_assignments(self.write(tmp_path, [self.entry(), self.entry()]))

    def test_very_high_confidence_rejected(self, tmp_path):
        from regio.errors import ConfigError
        from regio.formulas import load_proxy_assignments

        with pytest.raises(ConfigError):
            load_proxy_assignments(
                self.write(tmp_path, [self.entry(assignment_confidence="VERY_HIGH")])
            )

    def test_bad_formula_rejected(self, tmp_path):
        from regio.formulas import load_proxy_assignments

        with pytest.raises(FormulaSyntaxError):
            load_proxy_assignments(self.write(tmp_path, [self.entry(formula="a + * b")]))


class TestEuroWeights:
    def test_standard_tier_totals_exact(self):
        table = {w.tier: w for w in euro_weight_table(EMISSION_STANDARD_CAPS)}
        assert table["euro_1"].total == 3.83
        assert table["euro_2"].total == 1.78
        assert table["euro_3"].total == 1.25
        assert table["euro_4"].total == 0.825
        assert table["euro_5a"].total == 0.735
        assert table["euro_5b"].total == 0.7345
        assert table["euro_6d"].total == 0.6745

    def test_single_rows(self):
        (w,) = euro_weight_table([("euro_4", 0.50, 0.30, 0.025)])
        assert w.total == 0.825
        (w,) = euro_weight_table([("euro_6d", 0.50, 0.170, 0.0045)])
        assert w.total == 0.6745

    def test_total_is_exact_component_sum(self):
        for w in euro_weight_table(EMISSION_STANDARD_CAPS):
            assert w.total == pytest.approx(w.co_cap + w.hc_nox_cap + w.pm_cap, abs=1e-12)

    def test_negative_cap_rejected(self):
        with pytest.raises(NegativeCap):
            euro_weight_table([("bad", -0.1, 0.2, 0.3)])

    def test_stock_group_mapping(self):
        weights = passenger_car_weights()
        assert weights["euro_other"] == weights["euro_1"] == 3.83
        assert weights["euro_5"] == 0.735  # lenient 5a tier
        assert weights["euro_6r"] == weights["euro_6dt"] == weights["euro_6d"] == 0.6745

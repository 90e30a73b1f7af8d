import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regio.disaggregation import (
    ALLOCATE,
    REPLICATE,
    TaskSpec,
    allocate,
    check_dependencies,
    disaggregate,
    run_pipeline,
)
from regio.errors import (
    ConfigError,
    DuplicateVariable,
    EmptyChildSet,
    MissingValue,
    NegativeProxyValue,
    NonFiniteValue,
    UnresolvedDependency,
)
from regio.formulas import parse
from regio.hierarchy import SpatialLevel
from regio.series import (
    ConfidenceLevel,
    VariableSeries,
    VariableStore,
)


def series(values, level, vid="v", confidence=ConfidenceLevel.VERY_HIGH, scope="ALL"):
    return VariableSeries.from_values(
        vid, level, values, confidence, country_scope=scope
    )


class TestAllocate:
    def test_symmetric(self):
        assert allocate(100.0, [1.0, 1.0])[0].tolist() == [50.0, 50.0]

    def test_single_child_identity(self):
        assert allocate(100.0, [3.0])[0].tolist() == [100.0]

    def test_proportional(self):
        out, total = allocate(60.0, [1.0, 2.0, 3.0])
        assert out.tolist() == [10.0, 20.0, 30.0]
        assert total.tolist() == [6.0, 6.0, 6.0]

    def test_zero_sum_uniform_split(self):
        out, total = allocate(90.0, [0.0, 0.0, 0.0])
        assert out.tolist() == [30.0, 30.0, 30.0]
        assert total.tolist() == [0.0, 0.0, 0.0]

    def test_empty_child_set(self):
        with pytest.raises(EmptyChildSet):
            allocate(1.0, [])

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeProxyValue):
            allocate(1.0, [-0.5, 1.0])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(NonFiniteValue):
            allocate(1.0, [1.0, np.inf])

    def test_total_is_summed_left_to_right(self):
        # builtin sum() of floats is compensated from CPython 3.12 on and
        # would give 1.0000000000000002e16 here
        out, total = allocate(1.0, [1e16, 1.0, 1.0])
        assert total.tolist() == [1e16, 1e16, 1e16]
        assert out.tolist() == [1.0, 1e-16, 1e-16]

    def test_mass_conserved_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            weights = rng.uniform(0, 5, n)
            parent = float(rng.uniform(-100, 100))
            out, _ = allocate(parent, weights)
            assert sum(out.tolist()) == pytest.approx(parent, rel=1e-12, abs=1e-12)

    def test_overflowing_products_divide_first(self):
        assert allocate(1e200, [1e200, 1e200])[0].tolist() == [5e199, 5e199]

    def test_underflowing_products_divide_first(self):
        out, _ = allocate(1e-300, [1e-30, 3e-30])
        assert out.tolist() == pytest.approx([2.5e-301, 7.5e-301], rel=1e-15, abs=0.0)

    def test_a_run_out_of_range_divides_first_throughout(self):
        # 1.7e200 * 6.7 / 1e200 is 11.39, but the run's first product
        # overflows, so all three values divide first
        weights = np.array([1e200, 6.7, 3.4])
        out, totals = allocate(1.7e200, weights)
        assert out.tolist() == (1.7e200 * (weights / totals)).tolist()
        assert out[1:].tolist() == [11.389999999999999, 5.78]

    def test_only_runs_out_of_range_divide_first(self):
        parents, weights = [1e-300, 7.0, 1e200], [1e-30, 3e-30, 0.1, 0.3, 0.7, 1e200, 3e200]
        out, _ = allocate(parents, weights, [2, 3, 2])
        # the run in range keeps the bytes of parent * weight / total
        assert out[2:5].tolist() == (7.0 * np.array([0.1, 0.3, 0.7]) / (0.1 + 0.3 + 0.7)).tolist()
        assert out[[0, 1, 5, 6]].tolist() == pytest.approx(
            [2.5e-301, 7.5e-301, 2.5e199, 7.5e199], rel=1e-15, abs=0.0
        )


def relative_residuals(parents, values, lengths):
    sums = np.add.reduceat(values, np.cumsum(lengths) - lengths)
    return np.abs(sums - parents) / np.abs(parents)


# parents and weights from 1e-300 to 1e300 in magnitude; a weight may be 0
magnitudes = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)


@settings(max_examples=400, deadline=None, database=None)
@given(runs=st.lists(
    st.tuples(
        st.tuples(magnitudes, st.booleans()).map(lambda p: -p[0] if p[1] else p[0]),
        st.lists(st.one_of(magnitudes, st.just(0.0)), min_size=1, max_size=8),
    ),
    min_size=1, max_size=5,
))
def test_allocation_conserves_mass_or_raises(runs):
    parents = np.array([parent for parent, _ in runs])
    lengths = np.array([len(weights) for _, weights in runs])
    weights = np.concatenate([weights for _, weights in runs])
    try:
        values, _ = allocate(parents, weights, lengths)
    except NonFiniteValue:
        return
    assert np.isfinite(values).all()
    assert relative_residuals(parents, values, lengths).max() <= 1e-9


def make_task(source, formula, confidence=ConfidenceLevel.HIGH, mode=ALLOCATE):
    """A task named "out" at the level of ``source``."""
    return TaskSpec(1, "out", source.level, mode, None if formula is None else parse(formula),
                    confidence)


class TestTaskValidation:
    def test_source_level_restricted(self, mini_hierarchy):
        src = series({"AA0": 10.0}, SpatialLevel.NUTS1)
        with pytest.raises(ConfigError):
            disaggregate(make_task(src, "x"), src, mini_hierarchy, {})

    def test_very_high_assignment_rejected(self, mini_hierarchy):
        src = series({"AA000": 10.0}, SpatialLevel.NUTS3)
        with pytest.raises(ConfigError):
            disaggregate(make_task(src, "x", confidence=ConfidenceLevel.VERY_HIGH), src,
                         mini_hierarchy, {})

    def test_allocate_requires_formula(self, mini_hierarchy):
        src = series({"AA000": 10.0}, SpatialLevel.NUTS3)
        with pytest.raises(ConfigError):
            disaggregate(make_task(src, None), src, mini_hierarchy, {})

    def test_source_series_at_another_level_rejected(self, mini_hierarchy):
        src = series({"AA00": 10.0}, SpatialLevel.NUTS2)
        task = make_task(series({"AA000": 10.0}, SpatialLevel.NUTS3), "x")
        with pytest.raises(ConfigError, match="out: source series is at NUTS2, not at the "
                                              "task's source level NUTS3"):
            disaggregate(task, src, mini_hierarchy, {})


class TestDisaggregate:
    def lau_env(self, mini_hierarchy, values=None, confidence=ConfidenceLevel.VERY_HIGH):
        laus = mini_hierarchy.regions_at(SpatialLevel.LAU)
        if values is None:
            values = {r: float(i + 1) for i, r in enumerate(laus)}
        return {"x": series(values, SpatialLevel.LAU, vid="x", confidence=confidence)}

    def test_replicate_copies_value(self, mini_hierarchy):
        src = series({"AA000": 3000.0, "AA001": 2800.0}, SpatialLevel.NUTS3)
        task = make_task(src, None, confidence=ConfidenceLevel.MEDIUM, mode=REPLICATE)
        result = disaggregate(task, src, mini_hierarchy, {})
        for child in mini_hierarchy.descendants("AA000", SpatialLevel.LAU):
            assert result.series.value(child) == 3000.0
            assert result.series.confidence(child) == ConfidenceLevel.MEDIUM
        for child in mini_hierarchy.descendants("AA001", SpatialLevel.LAU):
            assert result.series.value(child) == 2800.0

    def test_replicate_confidence_capped_by_source(self, mini_hierarchy):
        src = series(
            {"AA000": 3000.0}, SpatialLevel.NUTS3, confidence=ConfidenceLevel.LOW
        )
        task = make_task(src, None, confidence=ConfidenceLevel.MEDIUM, mode=REPLICATE)
        result = disaggregate(task, src, mini_hierarchy, {})
        child = mini_hierarchy.descendants("AA000", SpatialLevel.LAU)[0]
        assert result.series.confidence(child) == ConfidenceLevel.LOW

    def test_equal_proxy_equal_split(self, mini_hierarchy):
        src = series({"AA000": 90.0}, SpatialLevel.NUTS3)
        env = self.lau_env(
            mini_hierarchy,
            {r: 4.0 for r in mini_hierarchy.regions_at(SpatialLevel.LAU)},
        )
        result = disaggregate(make_task(src, "x"), src, mini_hierarchy, env)
        for child in mini_hierarchy.descendants("AA000", SpatialLevel.LAU):
            assert result.series.value(child) == pytest.approx(30.0)

    def test_zero_proxy_parent_falls_back(self, mini_hierarchy):
        values = {r: 1.0 for r in mini_hierarchy.regions_at(SpatialLevel.LAU)}
        for child in mini_hierarchy.descendants("AA001", SpatialLevel.LAU):
            values[child] = 0.0
        src = series({"AA000": 30.0, "AA001": 30.0}, SpatialLevel.NUTS3)
        result = disaggregate(
            make_task(src, "x"), src, mini_hierarchy, self.lau_env(mini_hierarchy, values)
        )
        for child in mini_hierarchy.descendants("AA001", SpatialLevel.LAU):
            assert result.series.value(child) == pytest.approx(10.0)
            assert result.series.confidence(child) == ConfidenceLevel.VERY_LOW
            assert result.provenance[child].fallback
        for child in mini_hierarchy.descendants("AA000", SpatialLevel.LAU):
            assert not result.provenance[child].fallback
        assert result.fallback_count() == 3

    def test_confidence_min_of_assignment_and_proxy(self, mini_hierarchy):
        # imputed proxy at MEDIUM with LOW assignment -> LOW output;
        # observed proxy VERY_HIGH with HIGH assignment -> HIGH output
        laus = mini_hierarchy.regions_at(SpatialLevel.LAU)
        confs = {r: ConfidenceLevel.VERY_HIGH for r in laus}
        imputed_child = mini_hierarchy.descendants("AA000", SpatialLevel.LAU)[0]
        confs[imputed_child] = ConfidenceLevel.MEDIUM
        env = {
            "x": VariableSeries.from_values(
                "x", SpatialLevel.LAU, {r: float(i + 1) for i, r in enumerate(laus)}, confs
            )
        }
        src = series({"AA000": 10.0}, SpatialLevel.NUTS3)
        low = disaggregate(
            make_task(src, "x", confidence=ConfidenceLevel.LOW), src, mini_hierarchy, env
        )
        assert low.series.confidence(imputed_child) == ConfidenceLevel.LOW
        high = disaggregate(
            make_task(src, "x", confidence=ConfidenceLevel.HIGH), src, mini_hierarchy, env
        )
        assert high.series.confidence(imputed_child) == ConfidenceLevel.MEDIUM
        other = mini_hierarchy.descendants("AA000", SpatialLevel.LAU)[1]
        assert high.series.confidence(other) == ConfidenceLevel.HIGH

    def test_confidence_ceiling(self, mini_hierarchy):
        src = series({"AA000": 10.0, "AA001": 5.0}, SpatialLevel.NUTS3)
        result = disaggregate(
            make_task(src, "x", confidence=ConfidenceLevel.LOW), src,
            mini_hierarchy,
            self.lau_env(mini_hierarchy),
        )
        for obs in result.series.observations.values():
            assert obs.confidence <= ConfidenceLevel.LOW

    def test_share_uses_the_allocation_total(self, mini_hierarchy):
        # weights 1e16, 1, 1 sum left to right to 1e16; the builtin sum() of
        # CPython 3.12+ is compensated and gives 1.0000000000000002e16
        children = mini_hierarchy.descendants("AA000", SpatialLevel.LAU)
        env = {"x": series(dict(zip(children, [1e16, 1.0, 1.0])), SpatialLevel.LAU, vid="x")}
        src = series({"AA000": 1.0}, SpatialLevel.NUTS3)
        result = disaggregate(make_task(src, "x"), src, mini_hierarchy, env,
                              normalize_scope="parent")
        assert result.provenance[children[0]].share == 1.0
        for child in children:
            assert result.provenance[child].share == result.series.value(child)

    def test_missing_source_value_rejected(self, mini_hierarchy):
        src = series({"AA000": 10.0, "AA001": None}, SpatialLevel.NUTS3)
        with pytest.raises(MissingValue):
            disaggregate(make_task(src, "x"), src, mini_hierarchy, self.lau_env(mini_hierarchy))

    def test_unknown_formula_variable(self, mini_hierarchy):
        src = series({"AA000": 10.0}, SpatialLevel.NUTS3)
        from regio.errors import UnresolvedVariable

        with pytest.raises(UnresolvedVariable):
            disaggregate(make_task(src, "ghost"), src, mini_hierarchy, {})

    def test_mass_conservation(self, mini_hierarchy):
        rng = np.random.default_rng(8)
        laus = mini_hierarchy.regions_at(SpatialLevel.LAU)
        env = self.lau_env(
            mini_hierarchy, {r: float(v) for r, v in zip(laus, rng.uniform(0, 9, 12))}
        )
        src = series(
            {"AA000": 123.0, "AA001": 45.6, "BB000": 7.0, "BB001": 0.0},
            SpatialLevel.NUTS3,
        )
        result = disaggregate(make_task(src, "x"), src, mini_hierarchy, env)
        residuals = result.conservation_residuals()
        assert max(residuals.values()) <= 1e-9

    def test_share_permutation_invariance(self, mini_hierarchy):
        # permuting which child holds which weight permutes outputs identically
        src = series({"AA000": 100.0}, SpatialLevel.NUTS3)
        children = mini_hierarchy.descendants("AA000", SpatialLevel.LAU)
        base = {r: 1.0 for r in mini_hierarchy.regions_at(SpatialLevel.LAU)}
        w = [2.0, 3.0, 5.0]
        values_a = dict(base, **dict(zip(children, w)))
        values_b = dict(base, **dict(zip(children, w[::-1])))
        res_a = disaggregate(
            make_task(src, "x"), src, mini_hierarchy, self.lau_env(mini_hierarchy, values_a)
        )
        res_b = disaggregate(
            make_task(src, "x"), src, mini_hierarchy, self.lau_env(mini_hierarchy, values_b)
        )
        got_a = [res_a.series.value(c) for c in children]
        got_b = [res_b.series.value(c) for c in children]
        assert got_a == got_b[::-1]

    def test_nonnegative_outputs(self, mini_hierarchy):
        rng = np.random.default_rng(3)
        laus = mini_hierarchy.regions_at(SpatialLevel.LAU)
        env = self.lau_env(
            mini_hierarchy, {r: float(v) for r, v in zip(laus, rng.uniform(0, 5, 12))}
        )
        src = series({"AA000": 50.0, "AA001": 0.0}, SpatialLevel.NUTS3)
        result = disaggregate(make_task(src, "x"), src, mini_hierarchy, env)
        assert all(o.value >= 0 for o in result.series.observations.values())

    def test_parent_normalization_scope_flag(self, mini_hierarchy):
        # single-variable proxies: shares identical under either scope
        rng = np.random.default_rng(5)
        laus = mini_hierarchy.regions_at(SpatialLevel.LAU)
        env = self.lau_env(
            mini_hierarchy, {r: float(v) for r, v in zip(laus, rng.uniform(1, 9, 12))}
        )
        src = series({"AA000": 77.0, "AA001": 33.0}, SpatialLevel.NUTS3)
        country = disaggregate(make_task(src, "x"), src, mini_hierarchy, env)
        per_parent = disaggregate(
            make_task(src, "x"), src, mini_hierarchy, env, normalize_scope="parent"
        )
        for lau in mini_hierarchy.regions_at(SpatialLevel.LAU, "AA"):
            assert per_parent.series.value(lau) == pytest.approx(
                country.series.value(lau), rel=1e-12
            )
        # weighted composites may differ between scopes; both conserve mass
        composite = make_task(src, "2 * x + y")
        env["y"] = series(
            {r: float(v) for r, v in zip(laus, rng.uniform(1, 9, 12))},
            SpatialLevel.LAU,
            vid="y",
        )
        for scope in ("country", "parent"):
            res = disaggregate(composite, src, mini_hierarchy, env, normalize_scope=scope)
            assert max(res.conservation_residuals().values()) <= 1e-9


def pipeline_store(mini_hierarchy):
    store = VariableStore()
    laus = mini_hierarchy.regions_at(SpatialLevel.LAU)
    store.add(series({r: float(i + 1) for i, r in enumerate(laus)}, SpatialLevel.LAU, vid="pop"))
    store.add(series({"AA000": 10.0, "AA001": 20.0, "BB000": 5.0, "BB001": 15.0}, SpatialLevel.NUTS3, vid="jobs"))
    store.add(series({"AA": 1000.0, "BB": 500.0}, SpatialLevel.NUTS0, vid="fec_total"))
    return store


class TestPipeline:
    def specs(self):
        return [
            TaskSpec(1, "jobs", SpatialLevel.NUTS3, ALLOCATE, parse("pop"), ConfidenceLevel.MEDIUM),
            TaskSpec(3, "fec_total", SpatialLevel.NUTS0, ALLOCATE, parse("jobs + pop"), ConfidenceLevel.HIGH),
        ]

    def test_stage_outputs_feed_later_stages(self, mini_hierarchy):
        store = pipeline_store(mini_hierarchy)
        run = run_pipeline(self.specs(), mini_hierarchy, store)
        assert set(run.results) == {"jobs", "fec_total"}
        assert store.has("jobs", SpatialLevel.LAU)
        total = sum(
            o.value for o in run.results["fec_total"].series.observations.values()
        )
        assert total == pytest.approx(1500.0, rel=1e-12)

    def test_empty_stage_list(self, mini_hierarchy):
        run = run_pipeline([], mini_hierarchy, pipeline_store(mini_hierarchy))
        assert run.results == {} and run.reports == []

    def test_unresolved_dependency(self, mini_hierarchy):
        specs = [
            TaskSpec(2, "early", SpatialLevel.NUTS2, ALLOCATE, parse("late_output"), ConfidenceLevel.LOW),
            TaskSpec(3, "late_output", SpatialLevel.NUTS0, ALLOCATE, parse("pop"), ConfidenceLevel.LOW),
        ]
        with pytest.raises(UnresolvedDependency):
            run_pipeline(specs, mini_hierarchy, pipeline_store(mini_hierarchy))

    def test_same_stage_reference_unresolved(self, mini_hierarchy):
        specs = [
            TaskSpec(1, "a_first", SpatialLevel.NUTS3, ALLOCATE, parse("pop"), ConfidenceLevel.LOW),
            TaskSpec(1, "b_second", SpatialLevel.NUTS3, ALLOCATE, parse("a_first"), ConfidenceLevel.LOW),
        ]
        with pytest.raises(UnresolvedDependency):
            check_dependencies(specs, pipeline_store(mini_hierarchy))

    def test_duplicate_lau_target_rejected(self, mini_hierarchy):
        specs = [TaskSpec(1, "pop", SpatialLevel.NUTS3, ALLOCATE, parse("pop"), ConfidenceLevel.LOW)]
        with pytest.raises(DuplicateVariable):
            check_dependencies(specs, pipeline_store(mini_hierarchy))

    def test_missing_source_value_skips_region(self, mini_hierarchy):
        store = pipeline_store(mini_hierarchy)
        store.add(
            series({"AA": 1000.0, "BB": None}, SpatialLevel.NUTS0, vid="fec_total"), replace=True
        )
        run = run_pipeline(self.specs(), mini_hierarchy, store)
        report = [r for r in run.reports if r.target_id == "fec_total"][0]
        assert report.status == "ok"
        assert report.skipped_source_regions == ["BB"]
        assert all(
            not region.startswith("BB")
            for region in run.results["fec_total"].series.observations
        )

    def test_absent_source_series_skips_task(self, mini_hierarchy):
        specs = self.specs() + [
            TaskSpec(3, "ghost_total", SpatialLevel.NUTS0, ALLOCATE, parse("pop"), ConfidenceLevel.LOW)
        ]
        run = run_pipeline(specs, mini_hierarchy, pipeline_store(mini_hierarchy))
        skipped = run.skipped()
        assert [r.target_id for r in skipped] == ["ghost_total"]
        assert "ghost_total" not in run.results

    def test_conservation_reported(self, mini_hierarchy):
        run = run_pipeline(self.specs(), mini_hierarchy, pipeline_store(mini_hierarchy))
        for report in run.reports:
            assert report.max_conservation_residual <= 1e-9

    def test_jobs_parallelism_matches_sequential(self, mini_hierarchy):
        sequential = run_pipeline(self.specs(), mini_hierarchy, pipeline_store(mini_hierarchy))
        parallel = run_pipeline(
            self.specs(), mini_hierarchy, pipeline_store(mini_hierarchy), jobs=4
        )
        for target in sequential.results:
            a = sequential.results[target].series
            b = parallel.results[target].series
            assert a.observations == b.observations


class TestPipelineConfigLoader:
    def write(self, tmp_path, doc):
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(doc))
        return path

    def test_inherits_from_assignments(self, tmp_path):
        from regio.disaggregation import load_pipeline_config
        from regio.formulas import ProxyAssignment

        assignments = {
            "fec": ProxyAssignment("fec", SpatialLevel.NUTS0, parse("pop + jobs"),
                                   ConfidenceLevel.HIGH)
        }
        path = self.write(
            tmp_path,
            {"stages": [{"stage": 3, "tasks": [{"target_id": "fec", "source_level": "NUTS0"}]}]},
        )
        (spec,) = load_pipeline_config(path, assignments)
        assert spec.formula == parse("pop + jobs")
        assert spec.assignment_confidence == ConfidenceLevel.HIGH

    def test_inline_values_win(self, tmp_path):
        from regio.disaggregation import load_pipeline_config
        from regio.formulas import ProxyAssignment

        assignments = {
            "fec": ProxyAssignment("fec", SpatialLevel.NUTS0, parse("pop"), ConfidenceLevel.HIGH)
        }
        path = self.write(
            tmp_path,
            {
                "stages": [
                    {
                        "stage": 3,
                        "tasks": [
                            {
                                "target_id": "fec",
                                "source_level": "NUTS0",
                                "formula": "jobs",
                                "assignment_confidence": "LOW",
                            }
                        ],
                    }
                ]
            },
        )
        (spec,) = load_pipeline_config(path, assignments)
        assert spec.formula == parse("jobs")
        assert spec.assignment_confidence == ConfidenceLevel.LOW

    def test_allocate_without_formula_rejected(self, tmp_path):
        from regio.disaggregation import load_pipeline_config

        path = self.write(
            tmp_path,
            {"stages": [{"stage": 1, "tasks": [{"target_id": "x", "source_level": "NUTS3",
                                                "assignment_confidence": "LOW"}]}]},
        )
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

    def test_bad_stage_number(self, tmp_path):
        from regio.disaggregation import load_pipeline_config

        path = self.write(tmp_path, {"stages": [{"stage": 4, "tasks": []}]})
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

    def test_duplicate_target(self, tmp_path):
        from regio.disaggregation import load_pipeline_config

        task = {"target_id": "x", "source_level": "NUTS3", "formula": "pop",
                "assignment_confidence": "LOW"}
        path = self.write(tmp_path, {"stages": [{"stage": 1, "tasks": [task, task]}]})
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

    def test_nuts1_source_rejected(self, tmp_path):
        from regio.disaggregation import load_pipeline_config

        path = self.write(
            tmp_path,
            {"stages": [{"stage": 1, "tasks": [{"target_id": "x", "source_level": "NUTS1",
                                                "formula": "pop",
                                                "assignment_confidence": "LOW"}]}]},
        )
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

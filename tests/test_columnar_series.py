"""The columnar series code against the per-region loops it replaced
(``dict_reference.py``): every value, grade, fallback flag, share and
conservation residual must be equal, with -0.0 told apart from 0.0."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import dict_reference as ref
from conftest import random_hierarchy
from regio.disaggregation import ALLOCATE, REPLICATE, DisaggregationTask, disaggregate
from regio.errors import DuplicateRegion, MissingValue, NegativeProxyValue
from regio.formulas import evaluate, parse
from regio.hierarchy import RegionHierarchy, RegionNode, SpatialLevel
from regio.series import ConfidenceLevel, VariableSeries, aggregate

FORMULAS = ["a", "a + b", "2.5 * a + b * c", "a * b", "3 * c"]
# few distinct values, so weights tie; 1e-300 * 1e-300 underflows to 0
TIED = [0.0, -0.0, 1.0, 2.0, 3.5, 1e-300]
ASSIGNMENT = [ConfidenceLevel.HIGH, ConfidenceLevel.MEDIUM, ConfidenceLevel.LOW]


def exact(x):
    return None if x is None else float(x).hex()


def hierarchy_of(seed):
    rng = np.random.default_rng(seed)
    nodes = []
    for country in ("CC", "DD"):
        nodes += random_hierarchy(rng, country, min_leaves=120).nodes.values()
    return RegionHierarchy(nodes)


def draw(rng, n, negative=False):
    """Values mixing ties, signed zeros and spread-out magnitudes."""
    values = np.where(rng.random(n) < 0.5, rng.choice(TIED, n), rng.uniform(0, 1e3, n))
    if negative:
        values = np.where(rng.random(n) < 0.2, -values, values)
    return values


def make_series(rng, vid, regions, level, negative=False, missing=0.0):
    values = draw(rng, len(regions), negative)
    grades = rng.integers(0, 5, len(regions))
    return VariableSeries.from_values(
        vid,
        level,
        {r: None if rng.random() < missing else float(v) for r, v in zip(regions, values)},
        {r: ConfidenceLevel(int(g)) for r, g in zip(regions, grades)},
    )


def proxies(rng, hierarchy):
    laus = hierarchy.regions_at(SpatialLevel.LAU)
    env = {vid: make_series(rng, vid, laus, SpatialLevel.LAU) for vid in "abc"}
    # every proxy is zero below a few NUTS3 regions: those parents fall back
    zero = set()
    for parent in rng.choice(hierarchy.regions_at(SpatialLevel.NUTS3), 4, replace=False):
        zero.update(hierarchy.descendants(str(parent), SpatialLevel.LAU))
    for vid, series in env.items():
        values = {
            r: (-0.0 if i % 2 else 0.0) if r in zero else series.value(r)
            for i, r in enumerate(laus)
        }
        grades = {r: series.confidence(r) for r in laus}
        env[vid] = VariableSeries.from_values(vid, SpatialLevel.LAU, values, grades)
    return env


def observed(series):
    return {r: (exact(o.value), o.confidence) for r, o in series.observations.items()}


def expected(observations):
    return {r: (exact(v), c) for r, (v, c) in observations.items()}


def scrambled_hierarchy(seed):
    """Two countries whose codes sort neither by country nor by parent:
    ZZ's regions are coded A..., AA's are coded Z..., the NUTS3 regions of
    sibling NUTS2 regions interleave in code order, and so do the LAUs of
    sibling NUTS3 regions."""
    rng = np.random.default_rng(seed)
    nodes = []
    for country, p in (("ZZ", "A"), ("AA", "Z")):
        nodes.append(RegionNode(country, SpatialLevel.NUTS0, None, country))
        nodes.append(RegionNode(f"{p}1", SpatialLevel.NUTS1, country, country))
        for j in range(int(rng.integers(2, 4))):
            nodes.append(RegionNode(f"{p}2{j}", SpatialLevel.NUTS2, f"{p}1", country))
            for k in range(int(rng.integers(2, 6))):
                n3 = f"{p}3{k}{j}"
                nodes.append(RegionNode(n3, SpatialLevel.NUTS3, f"{p}2{j}", country))
                for m in range(int(rng.integers(3, 12))):
                    nodes.append(RegionNode(f"{p}_{m:03d}_{j}{k}", SpatialLevel.LAU, n3, country))
    return RegionHierarchy(nodes)


def assert_matches(got, obs, prov):
    """An AllocationResult equals the reference's observations and
    provenance, children and sources in allocation order."""
    assert observed(got.series) == expected(obs)
    assert got.children == tuple(prov)
    assert got.sources == tuple(source for source, _, _ in prov.values())
    assert {
        r: (p.source_region, exact(p.share), p.fallback) for r, p in got.provenance.items()
    } == {r: (s, exact(share), f) for r, (s, share, f) in prov.items()}


def compare_disaggregate(rng, hierarchy):
    """Every scope, weighting and mode of disaggregate against the reference."""
    env = proxies(rng, hierarchy)
    ref_env = {vid: ref.DictSeries.of(s) for vid, s in env.items()}
    for level in (SpatialLevel.NUTS3, SpatialLevel.NUTS2, SpatialLevel.NUTS0):
        regions = hierarchy.regions_at(level)
        for mode, formula in [(REPLICATE, None)] + [(ALLOCATE, f) for f in FORMULAS]:
            source = make_series(rng, "src", regions, level, negative=True)
            task = DisaggregationTask(
                "out", source, None if formula is None else parse(formula),
                ASSIGNMENT[int(rng.integers(3))], mode,
            )
            ref_source = ref.DictSeries.of(source)
            for scope in ("country", "parent"):
                for raw in (False, True):
                    got = disaggregate(task, hierarchy, env, scope, raw)
                    obs, prov = ref.disaggregate(
                        task, ref_source, hierarchy, ref_env, scope, raw
                    )
                    assert_matches(got, obs, prov)
                    # the output covers the level, so it holds the level's code tuple
                    assert got.series.codes is hierarchy._codes[SpatialLevel.LAU]
                    assert got.fallback_count() == sum(f for _, _, f in prov.values())
                    residuals = ref.conservation_residuals(obs, prov, ref_source)
                    assert {
                        p: exact(v) for p, v in got.conservation_residuals(source).items()
                    } == {p: exact(v) for p, v in residuals.items()}


def mixed_env(rng, hierarchy):
    """Proxies on both alignment paths. ``a`` holds the hierarchy's own LAU
    code tuple, ``b`` an equal but distinct tuple and ``c`` every LAU plus
    two codes that are not LAU regions (a NUTS3 code and an unknown one);
    ``home`` covers the first country only (its country scope); ``whole`` is
    an earlier stage's output over every LAU and ``part`` one over the first
    country."""
    env = proxies(rng, hierarchy)
    level = hierarchy._codes[SpatialLevel.LAU]
    env["a"] = replace(env["a"], codes=level)
    assert env["b"].codes == level and env["b"].codes is not level
    c = env["c"]
    extra = (hierarchy.regions_at(SpatialLevel.NUTS3)[-1], "~not_a_region")
    env["c"] = replace(
        c, codes=c.codes + extra, data=np.r_[c.data, 7.0, 8.0], grades=np.r_[c.grades, 4, 4]
    )
    home = hierarchy.countries()[0]
    env["home"] = replace(
        make_series(rng, "home", hierarchy.regions_at(SpatialLevel.LAU, home), SpatialLevel.LAU),
        country_scope=home,
    )
    nuts3 = hierarchy.regions_at(SpatialLevel.NUTS3)
    for vid, regions, formula in (
        ("whole", nuts3, "a + b"),
        ("part", hierarchy.regions_at(SpatialLevel.NUTS3, home), "home * c + a"),
    ):
        source = make_series(rng, vid, regions, SpatialLevel.NUTS3)
        stage = DisaggregationTask(vid, source, parse(formula), ConfidenceLevel.HIGH)
        env[vid] = disaggregate(stage, hierarchy, env).series
    assert env["whole"].codes is level
    assert env["part"].codes == tuple(env["home"].codes)
    return env


# formulas over every country, and (second list) over the first country only
MIXED = ["a + b", "whole * a + 2 * c", "a * whole + b * c"]
MIXED_HOME = ["home + a", "part * home + whole", "2.5 * part + a * b"]


def compare_mixed(rng, hierarchy):
    """disaggregate over a mixed env against the reference, in both scopes."""
    env = mixed_env(rng, hierarchy)
    ref_env = {vid: ref.DictSeries.of(s) for vid, s in env.items()}
    home = hierarchy.countries()[0]
    for level in (SpatialLevel.NUTS3, SpatialLevel.NUTS2, SpatialLevel.NUTS0):
        for formula in MIXED + MIXED_HOME:
            regions = hierarchy.regions_at(level, home if formula in MIXED_HOME else None)
            source = make_series(rng, "src", regions, level, negative=True)
            task = DisaggregationTask("out", source, parse(formula), ConfidenceLevel.MEDIUM)
            ref_source = ref.DictSeries.of(source)
            for scope in ("country", "parent"):
                for raw in (False, True):
                    got = disaggregate(task, hierarchy, env, scope, raw)
                    obs, prov = ref.disaggregate(
                        task, ref_source, hierarchy, ref_env, scope, raw
                    )
                    assert_matches(got, obs, prov)


def compare_aggregate(rng, hierarchy, signed_zero_parent):
    """aggregate to every coarser source level against the reference."""
    laus = hierarchy.regions_at(SpatialLevel.LAU)
    series = make_series(rng, "v", laus, SpatialLevel.LAU, negative=True, missing=0.1)
    # a NUTS3 region whose values are all -0.0 sums to 0.0, not -0.0
    signed_zero = set(hierarchy.descendants(signed_zero_parent, SpatialLevel.LAU))
    series = VariableSeries.from_values(
        "v", SpatialLevel.LAU,
        {r: -0.0 if r in signed_zero else o.value for r, o in series.observations.items()},
        {r: o.confidence or ConfidenceLevel.LOW for r, o in series.observations.items()},
    )
    for target in (SpatialLevel.NUTS3, SpatialLevel.NUTS2, SpatialLevel.NUTS0):
        got = aggregate(series, hierarchy, target, allow_partial=True)
        want = ref.aggregate(ref.DictSeries.of(series), hierarchy, target)
        assert observed(got) == expected(want)


class TestColumnarMatchesDictReference:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_disaggregate(self, seed):
        compare_disaggregate(np.random.default_rng(seed), hierarchy_of(seed))

    def test_disaggregate_mixed_alignment(self):
        compare_mixed(np.random.default_rng(12), hierarchy_of(12))

    def test_zero_proxy_parents_fall_back(self):
        rng = np.random.default_rng(3)
        hierarchy = hierarchy_of(3)
        env = proxies(rng, hierarchy)
        source = make_series(rng, "src", hierarchy.regions_at(SpatialLevel.NUTS3),
                             SpatialLevel.NUTS3)
        task = DisaggregationTask("out", source, parse("a"), ConfidenceLevel.HIGH)
        assert disaggregate(task, hierarchy, env, "parent").fallback.any()

    def test_missing_source_regions(self):
        rng = np.random.default_rng(5)
        hierarchy = hierarchy_of(5)
        env = proxies(rng, hierarchy)
        ref_env = {vid: ref.DictSeries.of(s) for vid, s in env.items()}
        regions = hierarchy.regions_at(SpatialLevel.NUTS3)
        source = make_series(rng, "src", regions, SpatialLevel.NUTS3, missing=0.3)
        task = DisaggregationTask("out", source, parse("a + b"), ConfidenceLevel.MEDIUM)
        with pytest.raises(MissingValue):
            disaggregate(task, hierarchy, env)
        with pytest.raises(MissingValue):
            ref.disaggregate(task, ref.DictSeries.of(source), hierarchy, ref_env)
        present = VariableSeries.from_values(
            "src", SpatialLevel.NUTS3,
            {r: source.value(r) for r in source.present_regions()},
            {r: source.confidence(r) for r in source.present_regions()},
        )
        task = DisaggregationTask("out", present, parse("a + b"), ConfidenceLevel.MEDIUM)
        obs, _ = ref.disaggregate(task, ref.DictSeries.of(present), hierarchy, ref_env)
        assert observed(disaggregate(task, hierarchy, env).series) == expected(obs)

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_evaluate(self, formula):
        rng = np.random.default_rng(6)
        hierarchy = hierarchy_of(6)
        env = proxies(rng, hierarchy)
        ref_env = {vid: ref.DictSeries.of(s) for vid, s in env.items()}
        expr = parse(formula)
        for scope in (
            hierarchy.regions_at(SpatialLevel.LAU, "CC"),
            hierarchy.descendants("DD0", SpatialLevel.LAU)[::-1],  # not sorted
        ):
            for raw in (False, True):
                want = ref.evaluate(expr, ref_env, scope, raw)
                assert observed(evaluate(expr, env, scope, raw)) == expected(want.observations)

    def test_aggregate(self):
        compare_aggregate(np.random.default_rng(7), hierarchy_of(7), "CC000")


class TestCodesNotSortedByParentOrCountry:
    """Allocation order (country, then source code) and the children's
    grouping differ from code order here, unlike in ``hierarchy_of``."""

    def test_codes_interleave(self):
        h = scrambled_hierarchy(8)
        assert h.regions_at(SpatialLevel.LAU)[0].startswith("A")  # country ZZ comes first
        laus = h.regions_at(SpatialLevel.LAU)
        parents = [h.ancestor(r, SpatialLevel.NUTS3) for r in laus]
        assert parents != sorted(parents)

    @pytest.mark.parametrize("seed", [8, 9])
    def test_disaggregate(self, seed):
        compare_disaggregate(np.random.default_rng(seed), scrambled_hierarchy(seed))

    def test_disaggregate_mixed_alignment(self):
        compare_mixed(np.random.default_rng(13), scrambled_hierarchy(13))

    def test_aggregate(self):
        hierarchy = scrambled_hierarchy(10)
        compare_aggregate(np.random.default_rng(10), hierarchy, "Z301")


def test_concurrent_lookups_build_one_consistent_index():
    """Threads that race to build a series' region index all read right."""
    regions = [f"R{i:05d}" for i in range(20000)]
    series = VariableSeries.from_values(
        "v", SpatialLevel.LAU, {r: float(i) for i, r in enumerate(regions)}
    )
    picks = [regions[i::8] for i in range(8)]
    results = [None] * 8

    def lookup(i):
        results[i] = series.values(picks[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lookup, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(8):
        assert results[i].tolist() == [float(j) for j in range(i, 20000, 8)]


def test_columns_are_sorted_read_only_and_unique():
    s = VariableSeries.from_values("v", SpatialLevel.LAU, {"B": 2.0, "A": None})
    assert s.codes == ("A", "B")
    assert s.missing_regions() == ["A"] and s.grades.tolist() == [-1, 4]
    with pytest.raises(ValueError):
        s.data[1] = 3.0
    with pytest.raises(TypeError):
        s.observations["A"] = None
    with pytest.raises(DuplicateRegion):
        VariableSeries("v", "", "", SpatialLevel.LAU, "ALL", ("B", "A", "B"), [1, 2, 3], [4, 4, 4])


@pytest.mark.parametrize("scope", ["country", "parent"])
@pytest.mark.parametrize(
    "case,shared",
    [("empty", True), ("empty", False), ("absent", False), ("negative", True), ("negative", False)],
)
def test_bad_proxy_value_raises_on_both_paths(case, shared, scope):
    """A proxy value that is missing (an empty cell or no row) or negative
    raises with the same message whether the series holds the level's code
    tuple (read at positions) or an equal tuple of its own (mapped first)."""
    hierarchy = scrambled_hierarchy(11)
    level = hierarchy._codes[SpatialLevel.LAU]
    bad = level[len(level) // 2]
    values = {r: 1.0 for r in level}
    if case == "empty":
        values[bad] = None
    elif case == "absent":
        del values[bad]
    else:
        values[bad] = -2.0
    b = VariableSeries.from_values("b", SpatialLevel.LAU, values)
    if shared:
        b = replace(b, codes=level)
    assert (b.codes is level) == shared
    env = {"a": VariableSeries.from_values("a", SpatialLevel.LAU, {r: 1.0 for r in level}), "b": b}
    source = VariableSeries.from_values(
        "src", SpatialLevel.NUTS3, {r: 1.0 for r in hierarchy.regions_at(SpatialLevel.NUTS3)}
    )
    task = DisaggregationTask("out", source, parse("a + b"), ConfidenceLevel.HIGH)
    error, message = (
        (NegativeProxyValue, f"b: negative proxy value at {bad!r}") if case == "negative"
        else (MissingValue, f"b: value for {bad!r} is missing")
    )
    with pytest.raises(error) as caught:
        disaggregate(task, hierarchy, env, scope)
    assert str(caught.value) == message
    with pytest.raises(error) as caught:
        evaluate(task.formula, env, level)
    assert str(caught.value) == message

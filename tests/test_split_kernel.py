"""regio's one summation rule and split kernel against plain Python loops.

``allocate`` totals, ``aggregate`` sums and per-run ``evaluate`` must equal,
by ``float.hex`` (so -0.0 differs from 0.0), a loop that adds left to right
from 0.0, and one ``evaluate`` call per run.
"""

import numpy as np
import pytest

from regio.disaggregation import allocate
from regio.formulas import evaluate, parse
from regio.hierarchy import RegionHierarchy, RegionNode, SpatialLevel
from regio.series import ConfidenceLevel, VariableSeries, aggregate

FORMULAS = ["a", "a + b", "2.5 * a + b * c", "a * b", "3 * c"]


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def hexes(values):
    return [float(v).hex() for v in values]


def draw_runs(rng, signed):
    """Runs of 1-400 values, one of 10,000, and runs of only signed zeros;
    magnitudes spread from 1e-12 to 1e12."""
    runs = []
    for n in [*rng.integers(1, 401, 40).tolist(), 10_000]:
        run = 10.0 ** rng.uniform(-12, 12, n)
        if signed:
            run *= rng.choice([-1.0, 1.0], n)
        runs.append(run)
    for n in (1, 2, 50):
        runs.append(np.full(n, -0.0))
        runs.append(rng.choice([0.0, -0.0], n))
    order = rng.permutation(len(runs))
    return [runs[i] for i in order]


def test_allocate_matches_a_loop_per_run():
    rng = np.random.default_rng(11)
    runs = draw_runs(rng, signed=False)
    parents = rng.uniform(-1e6, 1e6, len(runs))
    values, totals = allocate(parents, np.concatenate(runs), [len(run) for run in runs])
    want_values, want_totals = [], []
    for parent, run in zip(parents.tolist(), runs):
        total = left_to_right(run.tolist())
        want_totals += [total] * len(run)
        if total == 0.0:
            want_values += [parent / len(run)] * len(run)
        else:
            want_values += [parent * w / total for w in run.tolist()]
    assert hexes(totals) == hexes(want_totals)
    assert hexes(values) == hexes(want_values)


def test_allocate_without_lengths_is_one_run():
    weights = np.array([1e16, 1.0, 1.0, -0.0])
    values, totals = allocate(3.0, weights)
    run_values, run_totals = allocate([3.0], weights, [4])
    assert hexes(values) == hexes(run_values) and hexes(totals) == hexes(run_totals)


def test_aggregate_matches_a_loop_per_region():
    rng = np.random.default_rng(12)
    runs = draw_runs(rng, signed=True)
    nodes = [
        RegionNode("AA", SpatialLevel.NUTS0, None, "AA"),
        RegionNode("AA1", SpatialLevel.NUTS1, "AA", "AA"),
        RegionNode("AA11", SpatialLevel.NUTS2, "AA1", "AA"),
    ]
    values = {}
    for i, run in enumerate(runs):
        nuts3 = f"AA11{i:03d}"
        nodes.append(RegionNode(nuts3, SpatialLevel.NUTS3, "AA11", "AA"))
        for m, value in enumerate(run.tolist()):
            values[f"AA_{i:03d}_{m:05d}"] = value
            nodes.append(RegionNode(f"AA_{i:03d}_{m:05d}", SpatialLevel.LAU, nuts3, "AA"))
    hierarchy = RegionHierarchy(nodes)
    series = VariableSeries.from_values("v", SpatialLevel.LAU, values)
    by_nuts3 = aggregate(series, hierarchy, SpatialLevel.NUTS3)
    assert hexes(by_nuts3.data) == hexes(left_to_right(run.tolist()) for run in runs)
    national = aggregate(series, hierarchy, SpatialLevel.NUTS0)
    assert hexes(national.data) == hexes([left_to_right(series.data.tolist())])


@pytest.mark.parametrize("raw", [False, True])
def test_evaluate_per_run_equals_one_call_per_run(raw):
    rng = np.random.default_rng(13)
    regions = [f"R{i:05d}" for i in range(4000)]
    scope = [regions[i] for i in rng.permutation(len(regions))]
    lengths = []
    while sum(lengths) < len(scope):
        lengths.append(min(int(rng.integers(1, 401)), len(scope) - sum(lengths)))
    # some runs hold only zeros, so their maximum is 0
    ends = np.cumsum(lengths)
    zero = {r for k in (0, 3, 7) for r in scope[ends[k] - lengths[k]:ends[k]]}
    env = {}
    for vid in "abc":
        magnitudes = 10.0 ** rng.uniform(-12, 12, len(regions))
        magnitudes[rng.random(len(regions)) < 0.2] = 0.0
        env[vid] = VariableSeries.from_values(
            vid, SpatialLevel.LAU,
            {r: (-0.0 if r in zero else float(v)) for r, v in zip(regions, magnitudes)},
            dict(zip(regions, map(ConfidenceLevel, rng.integers(0, 5, len(regions)).tolist()))),
        )
    for formula in FORMULAS:
        expr = parse(formula)
        got = evaluate(expr, env, scope, raw, lengths=lengths)
        want = {}
        for n, end in zip(lengths, ends.tolist()):
            part = evaluate(expr, env, scope[end - n:end], raw)
            want.update(zip(part.codes, zip(hexes(part.data), part.grades.tolist())))
        assert dict(zip(got.codes, zip(hexes(got.data), got.grades.tolist()))) == want

"""Stepwise disaggregation: NUTS3 -> LAU, NUTS2 -> LAU, then the national
totals, with each stage's outputs registered as proxies for later stages.

Demonstrates proportional allocation, the replicate rule for intensive
quantities, zero-proxy fallback, confidence propagation, and the per-task
conservation residuals from the run report.
"""

from regio import (
    ALLOCATE,
    REPLICATE,
    ConfidenceLevel,
    RegionHierarchy,
    RegionNode,
    SpatialLevel,
    TaskSpec,
    VariableSeries,
    VariableStore,
    parse,
    run_pipeline,
)

# one country, 2 NUTS3 districts, 6 municipalities
nodes = [
    RegionNode("AA", SpatialLevel.NUTS0, None, "AA"),
    RegionNode("AA1", SpatialLevel.NUTS1, "AA", "AA"),
    RegionNode("AA11", SpatialLevel.NUTS2, "AA1", "AA"),
    RegionNode("AA111", SpatialLevel.NUTS3, "AA11", "AA"),
    RegionNode("AA112", SpatialLevel.NUTS3, "AA11", "AA"),
]
LAUS = []
for i, parent in enumerate(["AA111"] * 3 + ["AA112"] * 3):
    code = f"AA_{i:04d}"
    nodes.append(RegionNode(code, SpatialLevel.LAU, parent, "AA"))
    LAUS.append(code)
hierarchy = RegionHierarchy(nodes)


def lau(vid, values, confidence=ConfidenceLevel.VERY_HIGH):
    return VariableSeries.from_values(
        vid, SpatialLevel.LAU, dict(zip(LAUS, values)), confidence
    )


store = VariableStore()
store.add(lau("population", [100.0, 250.0, 150.0, 400.0, 320.0, 90.0]))
store.add(lau("road_km", [10.0, 0.0, 20.0, 0.0, 0.0, 0.0]))  # AA112: all zero
store.add(
    VariableSeries.from_values(
        "heating_degree_days", SpatialLevel.NUTS3, {"AA111": 3100.0, "AA112": 2700.0}
    )
)
store.add(
    VariableSeries.from_values(
        "freight", SpatialLevel.NUTS3, {"AA111": 40.0, "AA112": 60.0}
    )
)
store.add(
    VariableSeries.from_values("households_fec", SpatialLevel.NUTS0, {"AA": 9000.0})
)

specs = [
    # intensive quantity: same value for every child region
    TaskSpec(1, "heating_degree_days", SpatialLevel.NUTS3, REPLICATE, None, ConfidenceLevel.MEDIUM),
    TaskSpec(1, "freight", SpatialLevel.NUTS3, ALLOCATE, parse("road_km"), ConfidenceLevel.LOW),
    # the national total uses a stage-1 output inside its formula
    TaskSpec(3, "households_fec", SpatialLevel.NUTS0, ALLOCATE,
             parse("population * heating_degree_days"), ConfidenceLevel.HIGH),
]

run = run_pipeline(specs, hierarchy, store)

print("heating degree days replicated to municipalities:")
hdd = run.results["heating_degree_days"].series
print("  ", {r: hdd.value(r) for r in LAUS})

print("\nfreight allocated by road length (AA112 has a zero-proxy pocket):")
freight = run.results["freight"]
for region in LAUS:
    prov = freight.provenance[region]
    flag = "  <- uniform fallback, VERY_LOW" if prov.fallback else ""
    print(
        f"  {region}: {freight.series.value(region):7.3f} "
        f"({freight.series.confidence(region).name}){flag}"
    )

print("\nnational household FEC down to municipalities:")
fec = run.results["households_fec"].series
for region in LAUS:
    print(f"  {region}: {fec.value(region):9.3f} ({fec.confidence(region).name})")
print("  sum =", sum(fec.value(r) for r in LAUS))

print("\nrun report:")
for task in run.reports:
    residual = task.max_conservation_residual
    print(
        f"  stage {task.stage} {task.target_id:<20} {task.status:<7} "
        f"fallbacks={task.fallback_count} "
        + (f"max residual={residual:.2e}" if residual is not None else "(replicate)")
    )

"""Seeded synthetic regio projects, one shape per benchmark workload.

The topology (countries, NUTS and LAU codes, who belongs to whom) and the
shape of the data depend only on the workload. The seed multiplies every
value by its own factor of about 1 +- ``JITTER``, picks the cells left
missing and is regio's seed, so a different seed gives different files
while every seed makes regio do the same amount of work: the correlations
that decide which predictors imputation keeps stay clear of its cut-offs.
The same workload and seed give byte-identical files. Every proxy is non-negative and every formula
has a strictly positive term, so no parent falls back to a uniform split;
reference values are never zero.

Run ``python3 bench/project.py --workload impute-4k --seed 1 --out DIR`` to
write one project.
"""

from __future__ import annotations

import argparse
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
JITTER = 0.03
# Picked so that in impute-4k and de-11k-parent every correlation that
# regio's predictor selection compares stays at least 0.03 from its cut-off.
SHAPE_STREAM = 5

# id, level, unit, description
VARIABLES = (
    ("population", "LAU", "number", "Resident population"),
    ("road_network", "LAU", "kilometer", "Road network length"),
    ("industrial_area", "LAU", "square kilometer", "Industrial or commercial units cover"),
    ("buildings", "LAU", "number", "Residential buildings"),
    ("employment", "LAU", "number", "Persons employed at place of work"),
    ("heating_degree_days", "NUTS3", "heating degree days", "Heating degree days"),
    ("freight_traffic", "NUTS3", "Mt", "Road transport of freight"),
    ("motorcycle_stock", "NUTS2", "number", "Number of motorcycles"),
    ("transport_fec", "NUTS0", "MWh", "Final energy consumption, road transport"),
    ("households_ghg", "NUTS0", "kt CO2 equivalent", "Greenhouse-gas emissions, households"),
    ("services_fec", "NUTS0", "MWh", "Final energy consumption, services"),
)

# Six tasks over three stages: one replicate and five allocate, five distinct
# formula texts. Stage-3 formulas come from the proxy-assignment document.
PIPELINE = {
    "stages": [
        {
            "stage": 1,
            "tasks": [
                {"target_id": "heating_degree_days", "source_level": "NUTS3",
                 "mode": "replicate", "assignment_confidence": "MEDIUM"},
                {"target_id": "freight_traffic", "source_level": "NUTS3", "mode": "allocate",
                 "formula": "road_network", "assignment_confidence": "LOW"},
            ],
        },
        {
            "stage": 2,
            "tasks": [
                {"target_id": "motorcycle_stock", "source_level": "NUTS2", "mode": "allocate",
                 "formula": "freight_traffic + road_network", "assignment_confidence": "MEDIUM"},
            ],
        },
        {
            "stage": 3,
            "tasks": [
                {"target_id": "transport_fec", "source_level": "NUTS0", "mode": "allocate"},
                {"target_id": "households_ghg", "source_level": "NUTS0", "mode": "allocate"},
                {"target_id": "services_fec", "source_level": "NUTS0", "mode": "allocate"},
            ],
        },
    ]
}

ASSIGNMENTS = {
    "assignments": [
        {"target_id": "transport_fec", "source_level": "NUTS0",
         "formula": "1.78 * freight_traffic + 3.83 * motorcycle_stock + industrial_area",
         "assignment_confidence": "HIGH"},
        {"target_id": "households_ghg", "source_level": "NUTS0",
         "formula": "population * heating_degree_days", "assignment_confidence": "HIGH"},
        {"target_id": "services_fec", "source_level": "NUTS0",
         "formula": "employment + 0.5 * buildings", "assignment_confidence": "MEDIUM"},
    ]
}

GRID = {
    "thresholds": [0.1, 0.5],
    "n_estimators": [10, 20],
    "learning_rates": [0.1, 0.3],
    "max_depths": [2, 4],
}


@dataclass(frozen=True)
class Workload:
    name: str
    countries: int
    nuts2: int
    nuts3: int
    lau: int
    normalize_scope: str
    jobs: int
    missing: tuple[str, ...]  # variables with ~10% of their values left empty


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Run by hand only: too noisy on a shared 2-vCPU machine to gate on.
        Workload("eu-20k", 27, 243, 1160, 20000, "country", 1, ()),
        Workload("impute-4k", 1, 19, 59, 4000, "country", 2, ("employment",)),
        Workload("de-11k-parent", 1, 38, 401, 10800, "parent", 2,
                 ("freight_traffic", "motorcycle_stock")),
        # Not a benchmark workload: the small project the benchmark's tests use.
        Workload("tiny", 2, 4, 8, 160, "country", 1, ("employment",)),
    )
}


def _split(total: int, weights: np.ndarray) -> list[int]:
    """Integers >= 1 summing to ``total``, proportional to ``weights``."""
    n = len(weights)
    if total < n:
        raise ValueError(f"cannot split {total} into {n} non-empty parts")
    share = (total - n) * weights / weights.sum()
    parts = np.floor(share).astype(int)
    rest = total - n - int(parts.sum())
    order = np.argsort(-(share - parts), kind="stable")
    parts[order[:rest]] += 1
    return [int(p) + 1 for p in parts]


def _country_code(i: int) -> str:
    return chr(ord("A") + i // 26) + chr(ord("A") + i % 26)


@dataclass
class Topology:
    rows: list[tuple[str, str, str, str]]  # hierarchy.csv rows
    countries: list[str]
    nuts2: list[str]
    nuts3: list[str]
    lau: list[str]
    nuts3_of_lau: np.ndarray  # index into nuts3 for every LAU
    nuts2_of_nuts3: np.ndarray  # index into nuts2 for every NUTS3
    country_of_nuts2: np.ndarray  # index into countries for every NUTS2


def build_topology(w: Workload) -> Topology:
    """The region tree of a workload; it never depends on the seed."""
    rng = np.random.default_rng(zlib.crc32(w.name.encode()))
    country_size = rng.lognormal(0.0, 1.0, w.countries)
    n2_per_country = _split(w.nuts2, country_size)
    n2_size = np.repeat(country_size / n2_per_country, n2_per_country)
    n3_per_n2 = _split(w.nuts3, n2_size * rng.lognormal(0.0, 0.3, w.nuts2))
    n3_size = np.repeat(n2_size / n3_per_n2, n3_per_n2) * rng.lognormal(0.0, 0.5, w.nuts3)
    lau_per_n3 = _split(w.lau, n3_size)

    top = Topology([], [], [], [], [], np.repeat(np.arange(w.nuts3), lau_per_n3),
                   np.repeat(np.arange(w.nuts2), n3_per_n2),
                   np.repeat(np.arange(w.countries), n2_per_country))
    for ci in range(w.countries):
        cc = _country_code(ci)
        top.countries.append(cc)
        top.rows.append((cc, "NUTS0", "", cc))
        top.rows.append((f"{cc}1", "NUTS1", cc, cc))
        n_lau = 0
        for j in range(n2_per_country[ci]):
            code2 = f"{cc}1{j:02d}"
            top.rows.append((code2, "NUTS2", f"{cc}1", cc))
            i2 = len(top.nuts2)
            top.nuts2.append(code2)
            for k in range(n3_per_n2[i2]):
                code3 = f"{code2}{k:02d}"
                top.rows.append((code3, "NUTS3", code2, cc))
                i3 = len(top.nuts3)
                top.nuts3.append(code3)
                for _ in range(lau_per_n3[i3]):
                    n_lau += 1
                    code = f"{cc}_{n_lau:06d}"
                    top.rows.append((code, "LAU", code3, cc))
                    top.lau.append(code)
    return top


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _block_sums(values: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(owner, weights=values, minlength=n)


def make_values(w: Workload, top: Topology, seed: int) -> dict[str, object]:
    """Every series (region -> value, NaN = missing) and the reference table.

    Correlations are built in: the LAU proxies all scale with population,
    freight follows the road network and motorcycles follow population, so
    every variable left with gaps has a predictor that takes the ENSEMBLE
    path.
    """
    shape = np.random.default_rng([zlib.crc32(w.name.encode()), SHAPE_STREAM])
    seeded = np.random.default_rng([seed, zlib.crc32(w.name.encode())])

    def draw(mean: float, sigma: float, n: int) -> np.ndarray:
        """Lognormal factors of the workload's shape, jittered by the seed."""
        return shape.lognormal(mean, sigma, n) * seeded.lognormal(0.0, JITTER, n)

    n_lau, n3, n2 = len(top.lau), len(top.nuts3), len(top.nuts2)
    population = np.round(draw(7.5, 1.1, n_lau)) + 1.0
    lau = {
        "population": population,
        "road_network": np.round(population**0.6 * draw(0.0, 0.35, n_lau), 2) + 0.5,
        "industrial_area": np.round(
            draw(-1.0, 1.2, n_lau) * (shape.random(n_lau) > 0.15), 4
        ),
        "buildings": np.round(population * draw(-1.0, 0.45, n_lau)) + 1.0,
        "employment": np.round(population * draw(-0.9, 0.3, n_lau)),
    }
    pop3 = _block_sums(population, top.nuts3_of_lau, n3)
    road3 = _block_sums(lau["road_network"], top.nuts3_of_lau, n3)
    pop2 = _block_sums(pop3, top.nuts2_of_nuts3, n2)
    pop0 = _block_sums(pop2, top.country_of_nuts2, len(top.countries))
    series = {name: dict(zip(top.lau, values)) for name, values in lau.items()}
    series["heating_degree_days"] = dict(
        zip(top.nuts3, np.round(shape.uniform(1500.0, 4000.0, n3) * seeded.lognormal(0.0, JITTER, n3), 1))
    )
    series["freight_traffic"] = dict(
        zip(top.nuts3, np.round(road3 * 0.02 * draw(0.0, 0.1, n3), 3))
    )
    series["motorcycle_stock"] = dict(
        zip(top.nuts2, np.round(pop2 * 0.04 * draw(0.0, 0.05, n2)))
    )
    for name, per_person in (
        ("transport_fec", 6.5), ("households_ghg", 0.0021), ("services_fec", 3.1)
    ):
        series[name] = dict(
            zip(top.countries, np.round(pop0 * per_person * draw(0.0, 0.2, len(pop0)), 2))
        )
    for name in w.missing:
        regions = sorted(series[name])
        k = max(1, round(0.1 * len(regions)))
        for i in shape.choice(len(regions), size=k, replace=False):
            series[name][regions[i]] = float("nan")

    # transport_fec reported per NUTS2: the national value split by population
    # with noise, so validation deviations are non-trivial and never undefined.
    transport = np.array([series["transport_fec"][c] for c in top.countries])
    share = pop2 / pop0[top.country_of_nuts2] * draw(0.0, 0.15, n2)
    reference = dict(zip(top.nuts2, np.round(transport[top.country_of_nuts2] * share, 2) + 1.0))
    return {"series": series, "reference": reference}


def write_project(workload: str, seed: int, dest: str | Path) -> Path:
    """Write a complete project under ``dest``; returns its config path."""
    w = WORKLOADS[workload]
    dest = Path(dest)
    top = build_topology(w)
    data = make_values(w, top, seed)
    (dest / "series").mkdir(parents=True, exist_ok=True)
    (dest / "reference").mkdir(exist_ok=True)

    def write_lines(path: Path, lines: list[str]) -> None:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    write_lines(dest / "hierarchy.csv", ["code,level,parent,country"] + [",".join(r) for r in top.rows])
    for name, values in data["series"].items():
        write_lines(
            dest / "series" / f"{name}.csv",
            ["region,value"]
            + [f"{r},{'' if v != v else _fmt(v)}" for r, v in values.items()],
        )
    write_lines(
        dest / "reference" / "transport_fec_nuts2.csv",
        ["region,value,label"] + [f"{r},{_fmt(v)},{r} region" for r, v in data["reference"].items()],
    )

    def dump(name: str, doc: dict) -> None:
        (dest / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    dump("variables.json", {"variables": [
        {"id": vid, "level": level, "unit": unit, "description": text, "country_scope": "ALL"}
        for vid, level, unit, text in VARIABLES
    ]})
    dump("pipeline.json", PIPELINE)
    dump("proxy_assignments.json", ASSIGNMENTS)
    dump("config.json", {
        "hierarchy": "hierarchy.csv",
        "series_dir": "series",
        "registry": "variables.json",
        "proxy_assignments": "proxy_assignments.json",
        "pipeline": "pipeline.json",
        "reference_dir": "reference",
        "comparisons": [
            {"target_id": "transport_fec", "reference": "transport_fec_nuts2.csv", "level": "NUTS2"}
        ],
        "output_dir": "output",
        "seed": seed,
        "flags": {"weights_on_raw": False, "normalize_scope": w.normalize_scope},
        "imputation": GRID,
    })
    return dest / "config.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(write_project(args.workload, args.seed, args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

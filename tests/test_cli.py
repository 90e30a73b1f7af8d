import contextlib
import json
import math
import multiprocessing
import re
import shutil
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import TOY_PROJECT, needs_fork
from regio import cli, formulas, imputation
from regio.cli import _dump_json, main
from regio.config import (
    COMPARISON_KEYS,
    CONFIG_KEYS,
    FLAG_KEYS,
    IMPUTATION_KEYS,
    ingest_registry,
    load_project_config,
)
from regio.errors import InsufficientData
from regio.hierarchy import load_hierarchy
from regio.imputation import _final_fit, _staged_task


def run_cli(*args):
    return main([str(a) for a in args])


def edit_config(config_path: Path, **changes):
    doc = json.loads(config_path.read_text())
    doc.update(changes)
    config_path.write_text(json.dumps(doc, indent=2))


def output_dir(config_path: Path) -> Path:
    return config_path.parent / json.loads(config_path.read_text())["output_dir"]


def output_files(config_path: Path) -> dict[str, bytes]:
    """Every file under the output directory, by relative path."""
    root = output_dir(config_path)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestCheck:
    def test_valid_project(self, toy_project, capsys):
        assert run_cli("check", "--config", toy_project) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_unknown_formula_variable(self, toy_project, capsys):
        pipeline = toy_project.parent / "pipeline.json"
        doc = json.loads(pipeline.read_text())
        doc["stages"][0]["tasks"][1]["formula"] = "mystery_var"
        pipeline.write_text(json.dumps(doc))
        assert run_cli("check", "--config", toy_project) == 2
        assert "mystery_var" in capsys.readouterr().out

    def test_missing_hierarchy_file(self, toy_project, capsys):
        (toy_project.parent / "hierarchy.csv").unlink()
        assert run_cli("check", "--config", toy_project) == 2

    def test_missing_series_file(self, toy_project, capsys):
        (toy_project.parent / "series" / "population.csv").unlink()
        assert run_cli("check", "--config", toy_project) == 2
        assert "population" in capsys.readouterr().out

    def test_missing_config(self, tmp_path, capsys):
        assert run_cli("check", "--config", tmp_path / "nope.json") == 2

    def test_non_snake_case_variable_id(self, toy_project, capsys):
        registry = toy_project.parent / "variables.json"
        doc = json.loads(registry.read_text())
        doc["variables"][0]["id"] = "Population"
        registry.write_text(json.dumps(doc))
        assert run_cli("check", "--config", toy_project) == 2
        assert "snake_case" in capsys.readouterr().out


def test_each_formula_cell_is_parsed_once(toy_project, monkeypatch, capsys):
    """``regio run`` loads the project once and parses each formula cell of
    its JSON files there; every later step reads the parsed expression."""
    assignments = json.loads((toy_project.parent / "proxy_assignments.json").read_text())
    pipeline = json.loads((toy_project.parent / "pipeline.json").read_text())
    tasks = [task for stage in pipeline["stages"] for task in stage["tasks"]]
    cells = sorted(e["formula"] for e in assignments["assignments"] + tasks if "formula" in e)
    assert len(cells) == 4
    parsed = []
    parse = formulas._Parser.parse  # called once by each formulas.parse

    def counted(parser):
        parsed.append(parser.text)
        return parse(parser)

    monkeypatch.setattr(formulas._Parser, "parse", counted)
    assert run_cli("run", "--config", toy_project) == 0
    assert sorted(parsed) == cells


def toy_json(name: str, edit) -> str:
    """The toy project's JSON file ``name`` after ``edit(doc)``, as text."""
    doc = json.loads((TOY_PROJECT / name).read_text())
    edit(doc)
    return json.dumps(doc)


def toy_text(name: str, line: str) -> str:
    """The toy project's file ``name`` with ``line`` appended."""
    return f"{(TOY_PROJECT / name).read_text()}{line}\n"


REFERENCE = "reference/transport_fec_nuts2.csv"
# the toy industrial_area series with every value cell empty
ALL_MISSING = "".join(
    f"{line.split(',')[0]},\n" if i else f"{line}\n"
    for i, line in enumerate((TOY_PROJECT / "series/industrial_area.csv").read_text().split())
)
# validate reads the disaggregated output before the reference file
HEADER_ONLY_OUTPUT = {"output/transport_fec.csv": "region,value,confidence\n"}
# the toy proxy assignments with the weight 1.78 spelled as 1 and 400 zeros
HUGE_CONSTANT = toy_json("proxy_assignments.json", lambda doc: doc["assignments"][0].update(
    formula=doc["assignments"][0]["formula"].replace("1.78", "1" + "0" * 400)))

# both weights of 1.78 * freight_traffic + 3.83 * motorcycle_stock spelled as
# 3 and 307 zeros: each weight is finite (at most 6e307), their sum over a
# country is not
OVERFLOWING_CONSTANTS = toy_json("proxy_assignments.json", lambda doc: doc["assignments"][0].update(
    formula=doc["assignments"][0]["formula"].replace("1.78", "3" + "0" * 307)
    .replace("3.83", "3" + "0" * 307)))

# a subnormal NUTS2 value: its six LAU shares round to a sum 1 unit in the
# last place off it, a relative residual of about 5e-4
SUBNORMAL_SOURCE = (TOY_PROJECT / "series/motorcycle_stock.csv").read_text().replace(
    "AA11,10000", "AA11,1e-320")


def malformed_output(toy_project, capsys, command, files) -> str:
    """What ``command`` prints on the toy project with ``files`` replaced (a
    dict is merged into the JSON file); it must exit 2."""
    for name, content in files.items():
        path = toy_project.parent / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, dict):
            content = json.dumps({**json.loads(path.read_text()), **content})
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    assert run_cli(command, "--config", toy_project) == 2
    return capsys.readouterr().out


# A registry series that fails to load: bytes that are not UTF-8, and cells
# too large for the csv module (oversized cells in plain files are split
# rather than read by csv.reader, and a file reads the same in every spelling)
SERIES_LOAD_FAILURES = [
    pytest.param(
        "check",
        {"series/industrial_area.csv": b"region,value\nAA_0001,1.0\nAA_0002,\xe92.0\n"},
        "industrial_area.csv:3: not UTF-8 text", 1, id="series-not-utf8",
    ),
    pytest.param(  # a lone \r ends a line too
        "check",
        {"series/industrial_area.csv": b"region,value\rAA_0001,1.0\rAA_0002,2.0\r"
                                       b"AA_0003,3.0\rAA_0004,\xe94.0\r"},
        "industrial_area.csv:5: not UTF-8 text", 1, id="series-not-utf8-cr-only",
    ),
    pytest.param(
        "check", {"series/industrial_area.csv": f"region,value\nAA_0001,{'1' * 140_000}\n"},
        "industrial_area.csv:2: field larger than field limit", 1, id="series-oversized-cell",
    ),
    pytest.param(
        "check", {"series/industrial_area.csv": f"region,value\nAA_0001,{'0' * 140_000}\n"},
        "industrial_area.csv:2: field larger than field limit",
        1, id="series-oversized-cell-plain",
    ),
]


@pytest.mark.parametrize(
    "command,files,culprit,errors",
    [
        pytest.param("check", {"variables.json": "{"}, "variables.json", 1, id="registry-json"),
        pytest.param(
            "check", {"variables.json": '{"variables": [1]}'}, "variables.json",
            1, id="registry-entry",
        ),
        pytest.param("check", {"pipeline.json": "{"}, "pipeline.json", 1, id="pipeline-json"),
        pytest.param("check", {"pipeline.json": "[1, 2]"}, "pipeline.json", 1, id="pipeline-list"),
        pytest.param(
            "check", {"pipeline.json": '{"stages": [3]}'}, "pipeline.json", 1, id="stage-entry"
        ),
        pytest.param(
            "check", {"pipeline.json": '{"stages": [{"stage": 1, "tasks": [1]}]}'},
            "pipeline.json", 1, id="task-entry",
        ),
        pytest.param(
            "check", {"proxy_assignments.json": "{"}, "proxy_assignments.json",
            1, id="assignments-json-check",
        ),
        pytest.param(
            "impute", {"proxy_assignments.json": "{"}, "proxy_assignments.json",
            1, id="assignments-json-impute",
        ),
        pytest.param(
            "check", {REFERENCE: "region,value,label\nAA11,nan,Alpha\n"},
            "transport_fec_nuts2.csv", 1, id="reference-nan-check",
        ),
        pytest.param(
            "validate",
            {REFERENCE: "region,value,label\nAA11,nan,Alpha\n", **HEADER_ONLY_OUTPUT},
            "transport_fec_nuts2.csv", 1, id="reference-nan-validate",
        ),
        pytest.param(
            "validate",
            {REFERENCE: "region,value,label\nAA11,1,A\nAA11,2,B\n", **HEADER_ONLY_OUTPUT},
            "transport_fec_nuts2.csv:3", 1, id="reference-duplicate",
        ),
        pytest.param(
            "disaggregate",
            {"output/imputed/industrial_area.csv": "region,value,confidence\nAA_0004,4.0\n"},
            "industrial_area.csv:2", 1, id="imputed-short-row",
        ),
        pytest.param(
            "disaggregate",
            {"output/imputed/industrial_area.csv": "region,value,confidence\nAA_0004,4.0,BEST\n"},
            "industrial_area.csv:2", 1, id="imputed-bad-confidence",
        ),
        # a dict is merged into the JSON object already in the file
        pytest.param(
            "check", {"config.json": {"imputation": {"learning_rates": [2]}}},
            "config.json: imputation: learning_rates", 1, id="learning-rate-range",
        ),
        pytest.param(
            "impute", {"config.json": {"imputation": {"thresholds": 0.3}}},
            "config.json: imputation: thresholds", 1, id="thresholds-not-list",
        ),
        pytest.param(
            "check", {"config.json": {"imputation": {"max_depths": []}}},
            "config.json: imputation: max_depths", 1, id="max-depths-empty",
        ),
        pytest.param(
            "impute", {"config.json": {"imputation": {"n_estimators": [10.5]}}},
            "config.json: imputation: n_estimators", 1, id="n-estimators-not-int",
        ),
        pytest.param(
            "check", {"config.json": {"imputation": {"max_depth": [9]}}},
            "config.json: imputation: max_depth is not a known key", 1, id="imputation-unknown-key",
        ),
        pytest.param(
            "check", {"config.json": {"imputation": [0.1]}},
            "config.json: imputation must be an object", 1, id="imputation-not-object",
        ),
        pytest.param(
            "check", {"config.json": {"comparisons": [1]}},
            "config.json: comparison #0", 1, id="comparison-entry",
        ),
        pytest.param(
            "check", {"config.json": {"comparisons": {"target_id": "transport_fec"}}},
            "config.json: comparisons must be a list", 1, id="comparisons-not-list",
        ),
        pytest.param(
            "check", {"config.json": {"flags": [1]}}, "config.json: flags must be an object",
            1, id="flags-not-object",
        ),
        pytest.param(
            "check",
            {"config.json": {"comparisons": [{"target_id": "t", "reference": "r", "level": ["X"]}]}},
            "config.json: comparison #0: level must be one of NUTS0|NUTS1|NUTS2|NUTS3|LAU",
            1, id="comparison-level",
        ),
        pytest.param(
            "check", {"variables.json": '[{"id": "population", "level": "NUTS9"}]'},
            "variables.json: variable #0: level must be one of", 1, id="registry-level",
        ),
        # JSON fields of the wrong type
        pytest.param(
            "check",
            {"config.json": {"comparisons": [
                {"target_id": "transport_fec", "reference": 5, "level": "NUTS2"}
            ]}},
            "config.json: comparison #0: reference must be a string",
            1, id="comparison-reference-type",
        ),
        pytest.param(
            "check", {"config.json": {"hierarchy": 5}}, "config.json: hierarchy must be a string",
            1, id="hierarchy-path-type",
        ),
        pytest.param(
            "check", {"variables.json": '[{"id": "population", "level": "LAU", "file": 5}]'},
            "variables.json: variable #0: file must be a string", 1, id="registry-file-type",
        ),
        pytest.param(
            "check", {"variables.json": '[{"id": "population", "level": "LAU", "unit": [1]}]'},
            "variables.json: variable #0: unit must be a string", 1, id="registry-unit-type",
        ),
        pytest.param(
            "check",
            {"pipeline.json": '{"stages": [{"stage": 1, "tasks": [{"target_id": ["x"], '
                              '"source_level": "NUTS3", "assignment_confidence": "LOW"}]}]}'},
            "pipeline.json: stage 1 task #0: target_id must be a string", 1, id="task-target-type",
        ),
        pytest.param(
            "check",
            {"pipeline.json": '{"stages": [{"stage": 1, "tasks": [{"target_id": "x", '
                              '"source_level": "NUTS3", "mode": "replicate", '
                              '"assignment_confidence": ["HIGH"]}]}]}'},
            "pipeline.json: stage 1 task #0: assignment_confidence must be one of "
            "HIGH|MEDIUM|LOW|VERY_LOW", 1, id="task-confidence-type",
        ),
        pytest.param(
            "check",
            {"pipeline.json": '{"stages": [{"stage": 1, "tasks": [{"target_id": "x", '
                              '"source_level": ["NUTS3"], "assignment_confidence": "LOW"}]}]}'},
            "pipeline.json: stage 1 task #0: source_level must be one of", 1, id="task-level-type",
        ),
        pytest.param(
            "check",
            {"pipeline.json": '{"stages": [{"stage": 1, "tasks": [{"target_id": "x", '
                              '"source_level": "NUTS3", "formula": 5, '
                              '"assignment_confidence": "LOW"}]}]}'},
            "pipeline.json: stage 1 task #0: formula must be a string", 1, id="task-formula-type",
        ),
        pytest.param(
            "check",
            {"proxy_assignments.json": '[{"target_id": "t", "source_level": "NUTS0", '
                                       '"formula": 5, "assignment_confidence": "HIGH"}]'},
            "proxy_assignments.json: assignment #0: formula must be a string",
            1, id="assignment-formula-type",
        ),
        pytest.param(
            "check",
            {"proxy_assignments.json": '[{"target_id": "t", "source_level": "NUTS0", '
                                       '"formula": "a", "assignment_confidence": ["HIGH"]}]'},
            "proxy_assignments.json: assignment #0: assignment_confidence must be one of "
            "HIGH|MEDIUM|LOW|VERY_LOW",
            1, id="assignment-confidence-type",
        ),
        pytest.param(
            "check",
            {"proxy_assignments.json": '[{"target_id": "transport_fec", "source_level": "NUTS9", '
                                       '"formula": "population", "assignment_confidence": "HIGH"}]'},
            "proxy_assignments.json: assignment #0: source_level", 1, id="assignment-level",
        ),
        pytest.param(
            "check",
            {"pipeline.json": '{"stages": [{"stage": 3, "tasks": '
                              '[{"target_id": "transport_fec", "source_level": "NUTS2"}]}]}'},
            "pipeline.json: stage 3 task #0: source_level NUTS2 differs from the proxy "
            "assignment's NUTS0", 1, id="task-level-differs-from-assignment",
        ),
        # flags are checked like the imputation keys
        pytest.param(
            "check", {"config.json": {"flags": {"weights_on_raw": "false"}}},
            "config.json: flags: weights_on_raw must be true or false", 1, id="flags-raw-not-bool",
        ),
        pytest.param(
            "check", {"config.json": {"flags": {"normalise_scope": "parent"}}},
            "config.json: flags: normalise_scope is not a known key", 1, id="flags-unknown-key",
        ),
        pytest.param(
            "check", {"config.json": {"seed": True}}, "config.json: seed must be an integer",
            1, id="seed-bool",
        ),
        # bytes that are not UTF-8, and cells too large for the csv module
        *SERIES_LOAD_FAILURES,
        pytest.param(
            "check", {"hierarchy.csv": b"code,level,parent,country\nAA,NUTS0,,AA\n\xe9\n"},
            "hierarchy.csv:3: not UTF-8 text", 1, id="hierarchy-not-utf8",
        ),
        pytest.param(
            "check", {REFERENCE: b"region,value,label\nAA11,1,\xe9\n"},
            "transport_fec_nuts2.csv:2: not UTF-8 text", 1, id="reference-not-utf8",
        ),
        pytest.param(
            "disaggregate",
            {"output/imputed/industrial_area.csv": b"region,value,confidence\nAA_0004,4,H\xc3\n"},
            "industrial_area.csv:2: not UTF-8 text", 1, id="imputed-not-utf8",
        ),
        pytest.param(
            "check",
            {"hierarchy.csv": 'code,level,parent,country\nAA,NUTS0,,AA\n'
                              f'"{"A" * 140_000}",NUTS1,AA,AA\n'},
            "hierarchy.csv:3: field larger than field limit", 1, id="hierarchy-oversized-cell",
        ),
        # an oversized cell in a plain file, which is split rather than read by
        # csv.reader: a file reads the same in every spelling
        pytest.param(
            "check",
            {"hierarchy.csv": "code,level,parent,country\nAA,NUTS0,,AA\n"
                              f"{'A' * 140_000},NUTS1,AA,AA\n"},
            "hierarchy.csv:3: field larger than field limit", 1,
            id="hierarchy-oversized-cell-plain",
        ),
        pytest.param(
            "check", {"config.json": {"hierarchy": "a\u0000b.csv"}},
            "config.json: hierarchy must be a string without NUL", 1, id="hierarchy-path-nul",
        ),
        pytest.param(
            "check",
            {"config.json": {"comparisons": [
                {"target_id": "nope", "reference": "transport_fec_nuts2.csv", "level": "NUTS2"}
            ]}},
            "comparison #0: target 'nope' is not a target of any task", 1, id="comparison-target",
        ),
        # every JSON object kind rejects a key it does not declare
        pytest.param(
            "check", {"config.json": {"sed": 5}}, "config.json: sed is not a known key",
            1, id="config-unknown-key",
        ),
        pytest.param(
            "check",
            {"config.json": toy_json("config.json", lambda doc: doc["comparisons"][0].update(
                levle="NUTS0"))},
            "config.json: comparison #0: levle is not a known key", 1, id="comparison-unknown-key",
        ),
        pytest.param(
            "check",
            {"variables.json": toy_json("variables.json", lambda doc: doc["variables"][0].update(
                contry_scope="AA"))},
            "variables.json: variable #0: contry_scope is not a known key",
            1, id="registry-unknown-key",
        ),
        pytest.param(
            "check",
            {"proxy_assignments.json": toy_json(
                "proxy_assignments.json",
                lambda doc: doc["assignments"][1].update(assignment_confidnce="LOW"))},
            "proxy_assignments.json: assignment #1: assignment_confidnce is not a known key",
            1, id="assignment-unknown-key",
        ),
        pytest.param(
            "check",
            {"pipeline.json": toy_json("pipeline.json", lambda doc: doc["stages"][1].update(
                task=[]))},
            "pipeline.json: stage entry #1: task is not a known key", 1, id="stage-unknown-key",
        ),
        pytest.param(
            "check",
            {"pipeline.json": toy_json("pipeline.json", lambda doc: doc["stages"][0]["tasks"][0]
                                       .update(assignment_confidnce="VERY_LOW"))},
            "pipeline.json: stage 1 task #0: assignment_confidnce is not a known key",
            1, id="task-unknown-key",
        ),
        pytest.param(
            "check", {"pipeline.json": {"stagse": []}}, "pipeline.json: stagse is not a known key",
            1, id="document-unknown-key",
        ),
        # a stage number is an integer, not a boolean or a float
        pytest.param(
            "check",
            {"pipeline.json": toy_json("pipeline.json", lambda doc: doc["stages"][0].update(
                stage=True))},
            "pipeline.json: stage entry #0: stage must be 1, 2 or 3, got True", 1, id="stage-bool",
        ),
        pytest.param(
            "check",
            {"pipeline.json": toy_json("pipeline.json", lambda doc: doc["stages"][0].update(
                stage=1.0))},
            "pipeline.json: stage entry #0: stage must be 1, 2 or 3, got 1.0", 1, id="stage-float",
        ),
        # a formula syntax error names the file and the entry
        pytest.param(
            "check",
            {"pipeline.json": toy_json("pipeline.json", lambda doc: doc["stages"][1]["tasks"][0]
                                       .update(formula="freight_traffic +"))},
            "pipeline.json: stage 2 task #0: formula: unexpected end of formula",
            1, id="task-formula-syntax",
        ),
        pytest.param(
            "check",
            {"proxy_assignments.json": toy_json(
                "proxy_assignments.json",
                lambda doc: doc["assignments"][0].update(formula="1.78 * (freight_traffic"))},
            "proxy_assignments.json: assignment #0: formula: expected ')'",
            1, id="assignment-formula-syntax",
        ),
        # a run of digits too long for a finite float
        *(
            pytest.param(
                command, {"proxy_assignments.json": HUGE_CONSTANT},
                "proxy_assignments.json: assignment #0: formula: number is too large (position 0)",
                1, id=f"assignment-formula-constant-not-finite-{command}",
            )
            for command in ("check", "disaggregate")
        ),
        # weights that are finite, but whose total over a country is not
        pytest.param(
            "run", {"proxy_assignments.json": OVERFLOWING_CONSTANTS},
            "task 'transport_fec': the allocation of source region 'AA' is not finite", 1,
            id="allocation-not-finite",
        ),
        pytest.param(
            "run", {"series/motorcycle_stock.csv": SUBNORMAL_SOURCE},
            "task 'motorcycle_stock': the values allocated from source region 'AA11' miss its "
            "value by a relative 0.000494 (at most 1e-09)", 1,
            id="allocation-not-conserved",
        ),
        pytest.param(
            "check", {"hierarchy.csv": toy_text("hierarchy.csv", ",LAU,AA111,AA")},
            "hierarchy.csv:24: empty region code", 1, id="hierarchy-empty-code",
        ),
        pytest.param(
            "run",
            {"hierarchy.csv": toy_text("hierarchy.csv", "AA113,NUTS3,AA11,AA"),
             "series/freight_traffic.csv": toy_text("series/freight_traffic.csv", "AA113,5.0")},
            "task 'freight_traffic': no LAU region below source region(s) AA113",
            2, id="source-region-without-lau",
        ),
        pytest.param(
            "check",
            {"config.json": toy_json("config.json", lambda doc: doc["comparisons"].append(
                {"target_id": "transport_fec", "reference": "nat.csv", "level": "NUTS0"}))},
            "config.json: comparison #1: target 'transport_fec' is already compared by "
            "comparison #0", 1, id="comparison-target-twice",
        ),
        # outputs must not replace input files
        pytest.param(
            "run", {"config.json": {"output_dir": "series"}},
            "config.json: output_dir would overwrite the series_dir",
            1, id="output-dir-is-series-dir",
        ),
        pytest.param(
            "check", {"config.json": {"output_dir": "reference/"}},
            "config.json: output_dir would overwrite the reference_dir",
            1, id="output-dir-is-reference-dir",
        ),
        pytest.param(
            "check", {"config.json": {"series_dir": "output/imputed"}},
            "config.json: output_dir would overwrite the series_dir",
            1, id="series-dir-is-imputed-dir",
        ),
        # impute has nothing to fill a series with no observed value from
        pytest.param(
            "run", {"series/industrial_area.csv": ALL_MISSING},
            "industrial_area.csv: industrial_area has no observed value to impute from",
            1, id="series-all-missing",
        ),
        pytest.param(
            "impute", {"series/industrial_area.csv": ALL_MISSING},
            "error: industrial_area: no observed value to impute from",
            1, id="impute-series-all-missing",
        ),
        pytest.param(
            "check",
            {"series/road_network.csv": (TOY_PROJECT / "series/road_network.csv").read_text()
             .replace("AA_0005,15", "AA_0005,-5")},
            "road_network.csv: road_network: negative proxy value at 'AA_0005'",
            1, id="proxy-negative",
        ),
        # a proxy narrowed to one country cannot weight another country's regions
        pytest.param(
            "check",
            {"variables.json": toy_json("variables.json", lambda doc: doc["variables"][0].update(
                country_scope="AA")),
             "series/population.csv": "".join(
                 line + "\n" for line in (TOY_PROJECT / "series/population.csv").read_text()
                 .split() if not line.startswith("BB"))},
            "task 'households_ghg': proxy 'population' has country scope AA, but the source "
            "regions lie in AA, BB", 1, id="proxy-narrowed-scope",
        ),
    ],
)
def test_malformed_input_exits_2(toy_project, capsys, command, files, culprit, errors):
    """Each fault is one finding: only ``source-region-without-lau`` holds
    two, one per task."""
    out = malformed_output(toy_project, capsys, command, files)
    assert out.count("error:") == errors
    assert culprit in out


@pytest.mark.parametrize("command,files,culprit,errors", SERIES_LOAD_FAILURES)
def test_series_that_fails_to_load_is_one_error(
    toy_project, capsys, command, files, culprit, errors
):
    """Not also a missing dependency of the task whose formula reads it."""
    out = malformed_output(toy_project, capsys, command, files)
    assert out.count("error:") == 1
    assert culprit in out


@pytest.mark.parametrize("files", [
    pytest.param({}, id="toy"),
    pytest.param({"proxy_assignments.json": OVERFLOWING_CONSTANTS}, id="overflowing-constants"),
])
def test_no_output_holds_a_non_finite_value(toy_project, capsys, files):
    """Whether ``run`` succeeds or stops at an allocation that is not
    finite, every file it writes is strict JSON or text without an inf or
    NaN token."""
    for name, content in files.items():
        (toy_project.parent / name).write_text(content)
    assert run_cli("run", "--config", toy_project) == (2 if files else 0)
    written = [path for path in output_dir(toy_project).rglob("*") if path.is_file()]
    assert written
    for path in written:
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=lambda token: pytest.fail(f"{path}: {token}"))
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", text), path


def test_readme_config_example_holds_every_config_key(tmp_path):
    """README's config.json example loads, and it uses every key the loader
    declares, so the documented keys and the accepted keys cannot drift."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"`config.json`[^`]*```json\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "config.json").write_text(example)
    config = load_project_config(tmp_path / "config.json")
    assert config.comparisons and config.imputation_overrides
    doc = json.loads(example)
    assert set(doc) == set(CONFIG_KEYS)
    assert set(doc["flags"]) == set(FLAG_KEYS)
    assert set(doc["imputation"]) == set(IMPUTATION_KEYS)
    assert set(doc["comparisons"][0]) == set(COMPARISON_KEYS)


class TestErrorBoundary:
    """An OSError anywhere under ``main`` exits 3 with ``i/o error:`` and the
    path; nothing escapes ``main``."""

    @pytest.mark.parametrize("command", ["check", "impute", "disaggregate", "run"])
    def test_unreadable_series_file_exits_3(self, toy_project, monkeypatch, capsys, command):
        denied = toy_project.parent / "series" / "population.csv"
        real_open = Path.open

        def open_(path, *args, **kwargs):
            if path == denied:
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_)
        assert run_cli(command, "--config", toy_project) == 3
        out = capsys.readouterr().out
        assert f"i/o error: [Errno 13] Permission denied: '{denied}'" in out

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("where", ["registry-file", "config-hierarchy"])
    def test_file_name_too_long(self, toy_project, capsys, command, where):
        name = "x" * 300 + ".csv"
        if where == "config-hierarchy":
            edit_config(toy_project, hierarchy=name)
        else:
            registry = toy_project.parent / "variables.json"
            doc = json.loads(registry.read_text())
            doc["variables"][0]["file"] = name
            registry.write_text(json.dumps(doc))
        # Path.is_file raises ENAMETOOLONG up to CPython 3.12 and returns
        # False from 3.13, which reads as a missing file
        code = run_cli(command, "--config", toy_project)
        out = capsys.readouterr().out
        assert code in (2, 3)
        assert ("i/o error:" if code == 3 else "error:") in out
        assert name in out


def test_failed_json_write_keeps_old_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    with pytest.raises(TypeError):  # "b" is written before "c" fails to serialize
        _dump_json({"b": list(range(100)), "c": object()}, path)
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]


class TestImpute:
    def test_writes_series_and_report(self, toy_project):
        assert run_cli("impute", "--config", toy_project) == 0
        out = output_dir(toy_project) / "imputed"
        assert (out / "industrial_area.csv").is_file()
        report = json.loads((out / "industrial_area_report.json").read_text())
        assert report["variable_id"] == "industrial_area"
        assert report["method"] in ("ENSEMBLE", "MEAN_FALLBACK")
        summary = json.loads((out / "imputation_summary.json").read_text())
        assert summary["imputed"]["industrial_area"]["n_imputed"] == 1

    def test_noop_project(self, toy_project, capsys):
        series_dir = toy_project.parent / "series"
        path = series_dir / "industrial_area.csv"
        path.write_text(path.read_text().replace("AA_0004,", "AA_0004,4.0"))
        assert run_cli("impute", "--config", toy_project) == 0
        assert "0 variable(s) imputed" in capsys.readouterr().out
        summary = json.loads(
            (output_dir(toy_project) / "imputed" / "imputation_summary.json").read_text()
        )
        assert summary["imputed"] == {}

    def test_unwritable_output_dir(self, toy_project):
        blocker = toy_project.parent / "blocked"
        blocker.write_text("not a directory")
        edit_config(toy_project, output_dir="blocked/out")
        assert run_cli("impute", "--config", toy_project) == 3

    def test_seed_env_and_flag_equivalence(self, toy_project, monkeypatch):
        out = output_dir(toy_project) / "imputed" / "industrial_area.csv"
        assert run_cli("impute", "--config", toy_project, "--seed", 777) == 0
        by_flag = out.read_bytes()
        monkeypatch.setenv("REGIO_SEED", "777")
        assert run_cli("impute", "--config", toy_project) == 0
        assert out.read_bytes() == by_flag
        # the flag wins over the environment
        monkeypatch.setenv("REGIO_SEED", "123456")
        assert run_cli("impute", "--config", toy_project, "--seed", 777) == 0
        assert out.read_bytes() == by_flag

    @staticmethod
    def blank_road_network(toy_project, regions) -> None:
        """Empty the toy road_network values of ``regions`` (all if None);
        industrial_area, which sorts first, already misses one value."""
        path = toy_project.parent / "series" / "road_network.csv"
        path.write_text("".join(
            f"{line.split(',')[0]},\n" if i and (regions is None or line.split(",")[0] in regions)
            else f"{line}\n"
            for i, line in enumerate(path.read_text().split())
        ))

    @needs_fork
    def test_one_pool_per_run(self, toy_project, forks, monkeypatch):
        self.blank_road_network(toy_project, {"AA_0003"})
        assert run_cli("impute", "--config", toy_project, "--jobs", 1) == 0
        serial = output_files(toy_project)
        shutil.rmtree(output_dir(toy_project))
        pools, maps = [], []
        real_worker_map = imputation._worker_map

        @contextlib.contextmanager
        def recording_worker_map(workers):
            pools.append(workers)
            with real_worker_map(workers) as worker_map:
                yield lambda fn, tasks: maps.append((fn, len(tasks))) or worker_map(fn, tasks)

        monkeypatch.setattr(imputation, "_worker_map", recording_worker_map)
        assert run_cli("impute", "--config", toy_project, "--jobs", 2) == 0
        assert forks == [1, 1]
        assert multiprocessing.active_children() == []
        assert output_files(toy_project) == serial
        summary = json.loads(serial["imputed/imputation_summary.json"])
        assert sorted(summary["imputed"]) == ["industrial_area", "road_network"]
        # one pool of two workers; one map of it runs every grid search of
        # both variables, a second every final fit, each of more than one task
        assert pools == [2]
        assert [fn for fn, _ in maps] == [_staged_task, _final_fit]
        assert min(n_tasks for _, n_tasks in maps) > 1

    @needs_fork
    def test_pool_is_joined_when_a_variable_fails(self, toy_project, forks, monkeypatch,
                                                   capsys):
        def failing_fit(X, y, hp):  # only a final fit calls fit_gbrt
            raise InsufficientData("final fit refused")

        # the workers are forked after this, so they fit with it too
        monkeypatch.setattr(imputation, "fit_gbrt", failing_fit)
        self.blank_road_network(toy_project, {"AA_0003"})
        assert run_cli("impute", "--config", toy_project, "--jobs", 2) == 2
        assert "error: final fit refused" in capsys.readouterr().out
        assert forks == [1, 1]
        assert threading.active_count() == 1
        assert multiprocessing.active_children() == []
        assert list((output_dir(toy_project) / "imputed").glob("*.csv")) == []

    def test_variable_without_observed_value_fails_before_any_fit(self, toy_project, forks,
                                                                 capsys):
        self.blank_road_network(toy_project, None)
        assert run_cli("impute", "--config", toy_project, "--jobs", 2) == 2
        assert "road_network: no observed value" in capsys.readouterr().out
        assert forks == []
        # industrial_area, imputed first in store order, is not written either
        assert list((output_dir(toy_project) / "imputed").glob("*")) == []


    def test_non_finite_imputed_value_fails_before_any_write(self, toy_project, monkeypatch,
                                                             capsys):
        real_fit = imputation._final_fit

        def infinite_fit(task):
            pred_train, pred_val, predicted = real_fit(task)
            return pred_train, pred_val, np.full_like(predicted, np.inf)

        monkeypatch.setattr(imputation, "_final_fit", infinite_fit)
        assert run_cli("impute", "--config", toy_project) == 2
        assert "error: industrial_area: imputation gave a non-finite value" in (
            capsys.readouterr().out
        )
        assert list((output_dir(toy_project) / "imputed").glob("*")) == []

    def test_rmse_past_the_float_range_is_null(self, toy_project):
        """swing, a registered LAU series that no formula reads, holds 11
        values of +-1.5-1.7e308 and misses one. Its best setup cannot beat
        the mean, and that setup's validation RMSE, scaled back, passes the
        float range: the run exits 0 with no RuntimeWarning, and the report
        gives that RMSE as null."""
        root = toy_project.parent
        registry = json.loads((root / "variables.json").read_text())
        registry["variables"].append({
            "id": "swing", "description": "Near the float max", "unit": "number",
            "level": "LAU", "country_scope": "ALL",
        })
        (root / "variables.json").write_text(json.dumps(registry))
        codes = [line.split(",")[0] for line in
                 (root / "series" / "population.csv").read_text().splitlines()[1:]]
        rng = np.random.default_rng(0)
        values = rng.choice([-1.0, 1.0], len(codes)) * rng.uniform(1.5e308, 1.7e308, len(codes))
        blank = rng.integers(len(codes))
        (root / "series" / "swing.csv").write_text("region,value\n" + "".join(
            f"{code},\n" if i == blank else f"{code},{float(value)!r}\n"
            for i, (code, value) in enumerate(zip(codes, values))
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("run", "--config", toy_project, "--seed", 1) == 0

        def refuse(constant):
            raise AssertionError(f"{constant} in a JSON output")

        out = output_dir(toy_project) / "imputed"
        report = json.loads((out / "swing_report.json").read_text(), parse_constant=refuse)
        json.loads((out / "imputation_summary.json").read_text(), parse_constant=refuse)
        assert report["method"] == "MEAN_FALLBACK"
        assert report["rmse_val"] is None
        assert 0.0 < report["rmse_train"] < math.inf


class TestDisaggregate:
    def test_requires_imputation_first(self, toy_project, capsys):
        assert run_cli("disaggregate", "--config", toy_project) == 2
        assert "impute" in capsys.readouterr().out

    def test_outputs_and_run_report(self, toy_project):
        assert run_cli("impute", "--config", toy_project) == 0
        assert run_cli("disaggregate", "--config", toy_project) == 0
        out = output_dir(toy_project)
        for target in (
            "transport_fec",
            "households_ghg",
            "freight_traffic",
            "motorcycle_stock",
            "heating_degree_days",
        ):
            assert (out / f"{target}.csv").is_file()
        report = json.loads((out / "run_report.json").read_text())
        by_target = {t["target_id"]: t for t in report["tasks"]}
        assert by_target["transport_fec"]["skipped_source_regions"] == ["BB"]
        for entry in report["tasks"]:
            if entry["mode"] == "allocate":
                assert entry["max_conservation_residual"] <= 1e-9

    def test_mass_conservation_of_outputs(self, toy_project):
        run_cli("impute", "--config", toy_project)
        run_cli("disaggregate", "--config", toy_project)
        out = output_dir(toy_project)
        text = (out / "households_ghg.csv").read_text().splitlines()[1:]
        total = sum(float(line.split(",")[1]) for line in text)
        assert total == pytest.approx(800.0 + 900.0, rel=1e-12)

    def test_empty_task_list(self, toy_project, capsys):
        (toy_project.parent / "pipeline.json").write_text('{"stages": []}')
        edit_config(toy_project, comparisons=[])
        run_cli("impute", "--config", toy_project)
        assert run_cli("disaggregate", "--config", toy_project) == 0
        assert "0 target(s)" in capsys.readouterr().out


class TestValidate:
    def test_requires_disaggregation_outputs(self, toy_project, capsys):
        assert run_cli("validate", "--config", toy_project) == 2
        assert "disaggregate" in capsys.readouterr().out

    def test_deviation_reports_written(self, toy_project, capsys):
        run_cli("impute", "--config", toy_project)
        run_cli("disaggregate", "--config", toy_project)
        assert run_cli("validate", "--config", toy_project) == 0
        report_dir = output_dir(toy_project) / "validation"
        csv_path = report_dir / "deviation_transport_fec.csv"
        assert csv_path.is_file()
        assert (report_dir / "deviation_transport_fec.md").is_file()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "label,reported,disaggregated,difference,pct_deviation"
        label, reported, disagg, _, pct = lines[1].split(",")
        assert label == "Alpha region"
        assert float(reported) == 5100.0
        assert float(disagg) == pytest.approx(5000.0, rel=1e-12)
        assert float(pct) == pytest.approx(100 * 100 / 5100, rel=1e-9)
        out = capsys.readouterr().out
        assert "unmatched reference regions: BB11" in out

    def test_no_comparisons(self, toy_project, capsys):
        edit_config(toy_project, comparisons=[])
        assert run_cli("validate", "--config", toy_project) == 0
        assert "no comparisons" in capsys.readouterr().out

    def test_zero_reported_value_flagged(self, toy_project, capsys):
        reference = toy_project.parent / "reference" / "transport_fec_nuts2.csv"
        reference.write_text("region,value,label\nAA11,0,Alpha region\nBB11,4900,Beta\n")
        run_cli("impute", "--config", toy_project)
        run_cli("disaggregate", "--config", toy_project)
        assert run_cli("validate", "--config", toy_project) == 0
        assert "undefined (zero reported): AA11" in capsys.readouterr().out

    @pytest.mark.parametrize("reported,total,row", [
        ("5.1e27", "5000e23", "| Alpha region | 5.1e+27 | 5e+26 | 4.6e+27 | 90.2 |"),
        ("1e-310", "5000", "| Alpha region | 0.0 | 5000.0 | -5000.0 | -inf |"),
    ], ids=["large", "infinite-pct"])
    def test_values_of_any_size_are_shown(self, toy_project, reported, total, row):
        """Display rounding takes values far beyond 28 digits and a
        percentage that overflows to infinity."""
        root = toy_project.parent
        (root / "reference" / "transport_fec_nuts2.csv").write_text(
            f"region,value,label\nAA11,{reported},Alpha region\nBB11,4900,Beta region\n"
        )
        (root / "series" / "transport_fec.csv").write_text(f"region,value\nAA,{total}\nBB,\n")
        assert run_cli("run", "--config", toy_project) == 0
        table = (output_dir(toy_project) / "validation" / "deviation_transport_fec.md").read_text()
        assert table.splitlines()[2] == row


class TestValidateAgainstCityInventory:
    """Drive cmd_validate with pre-written disaggregated outputs: the known
    city-inventory deviation percentages must come back from the CLI path."""

    CITIES = [
        ("ES_0001", "Barcelona", 9822750.0, 8841562.0, 9.99),
        ("ES_0002", "Madrid", 21644328.0, 21892150.0, -1.14),
        ("ES_0003", "Valencia", 3102478.65, 3238758.0, -4.39),
        ("ES_0004", "Valladolid", 1703105.56, 1970336.0, -15.69),
        ("ES_0005", "Vitoria-Gasteiz", 1819780.0, 1592324.0, 12.50),
        ("ES_0006", "Zaragoza", 5768598.63, 3670931.0, 36.36),
        ("ES_0007", "Seville", 1078192.20, 2166460.60, -100.93),
    ]

    def build_project(self, tmp_path):
        root = tmp_path / "cities"
        (root / "series").mkdir(parents=True)
        (root / "reference").mkdir()
        (root / "output").mkdir()
        rows = ["code,level,parent,country", "ES,NUTS0,,ES", "ES1,NUTS1,ES,ES",
                "ES11,NUTS2,ES1,ES", "ES111,NUTS3,ES11,ES"]
        rows += [f"{code},LAU,ES111,ES" for code, *_ in self.CITIES]
        (root / "hierarchy.csv").write_text("\n".join(rows) + "\n")
        (root / "variables.json").write_text('{"variables": []}')
        (root / "pipeline.json").write_text('{"stages": []}')
        out_lines = ["region,value,confidence"] + [
            f"{code},{disagg},HIGH" for code, _, _, disagg, _ in self.CITIES
        ]
        (root / "output" / "buildings_fec.csv").write_text("\n".join(out_lines) + "\n")
        ref_lines = ["region,value,label"] + [
            f"{code},{reported},{label}" for code, label, reported, _, _ in self.CITIES
        ]
        (root / "reference" / "city_inventory.csv").write_text("\n".join(ref_lines) + "\n")
        config = root / "config.json"
        config.write_text(json.dumps({
            "hierarchy": "hierarchy.csv",
            "series_dir": "series",
            "registry": "variables.json",
            "pipeline": "pipeline.json",
            "reference_dir": "reference",
            "comparisons": [{"target_id": "buildings_fec",
                             "reference": "city_inventory.csv", "level": "LAU"}],
            "output_dir": "output",
            "seed": 1,
        }))
        return config

    def test_city_pct_deviations_through_cli(self, tmp_path):
        from regio.series import round_half_up

        config = self.build_project(tmp_path)
        assert run_cli("validate", "--config", config) == 0
        path = config.parent / "output" / "validation" / "deviation_buildings_fec.csv"
        with path.open() as fh:
            import csv as csvmod

            by_label = {r["label"]: r for r in csvmod.DictReader(fh)}
        for _, label, _, _, expected in self.CITIES:
            got = round_half_up(float(by_label[label]["pct_deviation"]))
            assert got == pytest.approx(expected, abs=0.01)


class TestRun:
    def test_full_chain(self, toy_project, capsys):
        assert run_cli("run", "--config", toy_project) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out
        assert "skipped source regions BB" in out

    def test_stops_on_check_failure(self, toy_project):
        (toy_project.parent / "hierarchy.csv").unlink()
        assert run_cli("run", "--config", toy_project) == 2
        assert not (output_dir(toy_project) / "run_report.json").exists()

    def test_jobs_flag_accepted(self, toy_project):
        assert run_cli("run", "--config", toy_project, "--jobs", 1) == 0
        serial = output_files(toy_project)
        shutil.rmtree(output_dir(toy_project))
        assert run_cli("run", "--config", toy_project, "--jobs", 2) == 0
        assert output_files(toy_project) == serial

    def test_loads_project_once(self, toy_project, monkeypatch):
        calls = []
        hierarchy_loads = []

        def counting_ingest(*args):
            calls.append(args)
            return ingest_registry(*args)

        def counting_load_hierarchy(*args):
            hierarchy_loads.append(args)
            return load_hierarchy(*args)

        monkeypatch.setattr(cli, "ingest_registry", counting_ingest)
        monkeypatch.setattr(cli, "load_hierarchy", counting_load_hierarchy)
        assert run_cli("run", "--config", toy_project) == 0
        assert len(calls) == 1
        assert len(hierarchy_loads) == 1

    def test_cr_inside_a_code_gives_the_same_outputs(self, toy_project):
        """A quoted LAU code holding a CR is written quoted again, so the
        imputed series reads back and every output matches the plain run's."""
        plain = toy_project.parent.with_name("plain")
        shutil.copytree(toy_project.parent, plain)
        assert run_cli("run", "--config", plain / "config.json") == 0
        root = toy_project.parent
        for path in [root / "hierarchy.csv", *root.glob("series/*.csv")]:
            path.write_bytes(path.read_bytes().replace(b"AA_0001", b'"AA_00\r01"'))
        assert run_cli("run", "--config", toy_project) == 0
        written = output_files(toy_project)
        assert b'\n"AA_00\r01",' in written["imputed/industrial_area.csv"]
        assert {
            name: data.replace(b'"AA_00\r01"', b"AA_0001") for name, data in written.items()
        } == output_files(plain / "config.json")

    @pytest.mark.parametrize("variable, factor, exponent", [
        ("industrial_area", 2.0**600, 600),
        ("industrial_area", 2.0**-600, -600),
        ("population", 2.0**600, 0),
        ("industrial_area", 1e307, None),
        ("population", 2.0**1014, 0),
    ], ids=["target-2^600", "target-2^-600", "predictor-2^600", "target-1e307",
            "predictor-2^1014"])
    def test_imputation_in_other_units(self, toy_project, variable, factor, exponent):
        """Scaling a series by a power of two imputes industrial_area as in
        the plain toy, its value scaled the same way, and a scaled predictor
        changes no output byte; at 1e307 no squared error or mean leaves the
        float range, so nothing becomes inf. At 2^1014 the sum of two
        predictor values overflows."""
        plain = toy_project.parent.with_name("plain")
        shutil.copytree(toy_project.parent, plain)
        assert run_cli("run", "--config", plain / "config.json") == 0
        path = toy_project.parent / "series" / f"{variable}.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("".join([f"{header}\n", *(
            f"{code},{float(value) * factor!r}\n" if value else f"{code},\n"
            for code, value in (row.split(",") for row in rows)
        )]))
        assert run_cli("run", "--config", toy_project) == 0
        written, expected = output_files(toy_project), output_files(plain / "config.json")
        assert not any(b"inf" in data for data in written.values())
        report, plain_report = (
            json.loads(files["imputed/industrial_area_report.json"]) for files in (written, expected)
        )
        assert plain_report["method"] == "ENSEMBLE"
        if exponent is None:
            assert report["method"] == plain_report["method"]
            return
        keys = ("method", "selected_predictors", "best_hyperparams", "r2_val")
        assert {k: report[k] for k in keys} == {k: plain_report[k] for k in keys}
        imputed, plain_imputed = (
            float(re.search(rb"\nAA_0004,([^,]+),", files["imputed/industrial_area.csv"])[1])
            for files in (written, expected)
        )
        assert imputed.hex() == math.ldexp(plain_imputed, exponent).hex()
        if exponent == 0:
            assert written == expected

    def test_same_outputs_as_separate_commands(self, toy_project):
        assert run_cli("run", "--config", toy_project) == 0
        chained = output_files(toy_project)
        shutil.rmtree(output_dir(toy_project))
        for command in ("check", "impute", "disaggregate", "validate"):
            assert run_cli(command, "--config", toy_project) == 0
        assert output_files(toy_project) == chained

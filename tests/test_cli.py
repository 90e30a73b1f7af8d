import json
from pathlib import Path

import pytest

from regio.cli import _dump_json, main


def run_cli(*args):
    return main([str(a) for a in args])


def edit_config(config_path: Path, **changes):
    doc = json.loads(config_path.read_text())
    doc.update(changes)
    config_path.write_text(json.dumps(doc, indent=2))


def output_dir(config_path: Path) -> Path:
    return config_path.parent / json.loads(config_path.read_text())["output_dir"]


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


REFERENCE = "reference/transport_fec_nuts2.csv"
# validate reads the disaggregated output before the reference file
HEADER_ONLY_OUTPUT = {"output/transport_fec.csv": "region,value,confidence\n"}


@pytest.mark.parametrize(
    "command,files,culprit",
    [
        pytest.param("check", {"variables.json": "{"}, "variables.json", id="registry-json"),
        pytest.param(
            "check", {"variables.json": '{"variables": [1]}'}, "variables.json",
            id="registry-entry",
        ),
        pytest.param("check", {"pipeline.json": "{"}, "pipeline.json", id="pipeline-json"),
        pytest.param("check", {"pipeline.json": "[1, 2]"}, "pipeline.json", id="pipeline-list"),
        pytest.param(
            "check", {"pipeline.json": '{"stages": [3]}'}, "pipeline.json", id="stage-entry"
        ),
        pytest.param(
            "check", {"pipeline.json": '{"stages": [{"stage": 1, "tasks": [1]}]}'},
            "pipeline.json", id="task-entry",
        ),
        pytest.param(
            "check", {"proxy_assignments.json": "{"}, "proxy_assignments.json",
            id="assignments-json-check",
        ),
        pytest.param(
            "impute", {"proxy_assignments.json": "{"}, "proxy_assignments.json",
            id="assignments-json-impute",
        ),
        pytest.param(
            "check", {REFERENCE: "region,value,label\nAA11,nan,Alpha\n"},
            "transport_fec_nuts2.csv", id="reference-nan-check",
        ),
        pytest.param(
            "validate",
            {REFERENCE: "region,value,label\nAA11,nan,Alpha\n", **HEADER_ONLY_OUTPUT},
            "transport_fec_nuts2.csv", id="reference-nan-validate",
        ),
        pytest.param(
            "validate",
            {REFERENCE: "region,value,label\nAA11,1,A\nAA11,2,B\n", **HEADER_ONLY_OUTPUT},
            "transport_fec_nuts2.csv:3", id="reference-duplicate",
        ),
        pytest.param(
            "disaggregate",
            {"output/imputed/industrial_area.csv": "region,value,confidence\nAA_0004,4.0\n"},
            "industrial_area.csv:2", id="imputed-short-row",
        ),
        pytest.param(
            "disaggregate",
            {"output/imputed/industrial_area.csv": "region,value,confidence\nAA_0004,4.0,BEST\n"},
            "industrial_area.csv:2", id="imputed-bad-confidence",
        ),
        # a dict is merged into the JSON object already in the file
        pytest.param(
            "check", {"config.json": {"imputation": {"learning_rates": [2]}}},
            "config.json: imputation.learning_rates", id="learning-rate-range",
        ),
        pytest.param(
            "impute", {"config.json": {"imputation": {"thresholds": 0.3}}},
            "config.json: imputation.thresholds", id="thresholds-not-list",
        ),
        pytest.param(
            "check", {"config.json": {"imputation": {"max_depths": []}}},
            "config.json: imputation.max_depths", id="max-depths-empty",
        ),
        pytest.param(
            "impute", {"config.json": {"imputation": {"n_estimators": [10.5]}}},
            "config.json: imputation.n_estimators", id="n-estimators-not-int",
        ),
        pytest.param(
            "check", {"config.json": {"imputation": [0.1]}},
            "config.json: 'imputation'", id="imputation-not-object",
        ),
        pytest.param(
            "check", {"config.json": {"comparisons": [1]}},
            "config.json: comparison #0", id="comparison-entry",
        ),
        pytest.param(
            "check", {"config.json": {"comparisons": {"target_id": "transport_fec"}}},
            "config.json: 'comparisons'", id="comparisons-not-list",
        ),
        pytest.param(
            "check", {"config.json": {"flags": [1]}}, "config.json: 'flags'", id="flags-not-object",
        ),
        pytest.param(
            "check",
            {"config.json": {"comparisons": [{"target_id": "t", "reference": "r", "level": ["X"]}]}},
            "config.json: comparison #0: unknown spatial level", id="comparison-level",
        ),
        pytest.param(
            "check", {"variables.json": '[{"id": "population", "level": "NUTS9"}]'},
            "variables.json: variable #0: unknown spatial level", id="registry-level",
        ),
    ],
)
def test_malformed_input_exits_2(toy_project, capsys, command, files, culprit):
    for name, content in files.items():
        path = toy_project.parent / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, dict):
            content = json.dumps({**json.loads(path.read_text()), **content})
        path.write_text(content)
    assert run_cli(command, "--config", toy_project) == 2
    out = capsys.readouterr().out
    assert "error:" in out
    assert culprit in out


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
            got = round_half_up(float(by_label[label]["pct_deviation"]), 2)
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
        assert run_cli("run", "--config", toy_project, "--jobs", 3) == 0

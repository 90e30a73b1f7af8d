"""Column-wise CSV reading and writing against the row readers.

``ingest_series``, ``read_series_csv``, ``read_reference_csv`` and
``load_hierarchy`` read a file as whole columns when splitting on newlines
and commas parses it as ``csv`` would and every bulk check passes; otherwise
they read it row by row, and the row reader reports every error.
``write_series_csv`` joins formatted lines unless a code needs quoting. The
properties below generate files (and series) with the defects each bulk
check must catch, and require the result, or the error, of the row path.
"""

import csv
import hashlib
import io
import math
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import build_country
from regio import config, series as series_module
from regio.cli import main as cli_main
from regio.config import read_reference_csv
from regio.hierarchy import RegionHierarchy, SpatialLevel, load_hierarchy
from regio.series import (
    ConfidenceLevel,
    SeriesMeta,
    VariableSeries,
    ingest_series,
    read_series_csv,
    write_series_csv,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(
    max_examples=300, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

HIERARCHY = RegionHierarchy(build_country("AA", 1, 2, 2, 3) + build_country("BB", 1, 1, 2, 3))
LEVELS = (SpatialLevel.LAU, SpatialLevel.NUTS3)
CODES = [code for level in LEVELS for code in HIERARCHY.regions_at(level)] + ["ZZ_1", "AA"]

VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.just(""),  # missing
)
# value cells float() rejects, or reads as NaN or inf, or reads although odd
ODD_VALUES = st.sampled_from(
    ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "abc", " ", " 2.5", "1_000", "-0"]
)
GRADES = st.sampled_from([level.name for level in ConfidenceLevel])
ODD_GRADES = st.sampled_from(["", "BEST", " HIGH", "high"])
LABELS = st.sampled_from(["", "Alpha", " Beta ", "two words", "  "])
# the defects a row can get; the ones the bulk checks catch alone come more often
DEFECTS = [
    "pad", "quote", "drop", "drop", "add", "blank", "value", "value", "value", "tail", "tail",
    "repeat",
]


def outcome(read, *args):
    """What ``read(*args)`` gives: a comparable summary, or the error."""
    try:
        result = read(*args)
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return type(exc), str(exc)
    if isinstance(result, tuple):  # read_reference_csv: (series, labels)
        return summary(result[0]), result[1]
    return summary(result)


def summary(series: VariableSeries):
    return (
        series.variable_id, series.level, series.country_scope, series.codes,
        [value.hex() for value in series.data.tolist()], series.grades.tolist(),
    )


@st.composite
def csv_text(draw, header, rows, odd_tail=None):
    """``header`` and ``rows`` (lists of cells) as CSV text, with up to two
    defects (a padded, quoted, dropped or extra cell, a blank line, an odd
    value or ``odd_tail`` cell, a repeated row), often in the last row; and
    maybe another header, CRLF, quotes everywhere or no final newline."""
    rows = [list(row) for row in rows]
    odd_headers = [[" " + header[0]] + header[1:], header[:-1], []]
    header = draw(st.sampled_from([header] * 16 + odd_headers))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        kind = draw(st.sampled_from(DEFECTS))
        if not rows:
            break
        at = draw(st.one_of(st.just(len(rows) - 1), st.integers(0, len(rows) - 1)))
        row = rows[at]
        if not row:
            continue
        cell = draw(st.integers(0, len(row) - 1))
        if kind == "pad":
            row[cell] = f" {row[cell]} "
        elif kind == "quote":
            row[cell] = f'"{row[cell]}"'
        elif kind == "drop":
            del row[cell]
        elif kind == "add":
            row.append(draw(st.sampled_from(["", "x", "1"])))
        elif kind == "blank":
            rows.insert(at, draw(st.sampled_from([[], [" "], ["", ""]])))
        elif kind == "value" and len(row) > 1:
            row[1] = draw(ODD_VALUES)
        elif kind == "tail" and odd_tail is not None and len(row) > 2:
            row[2] = draw(odd_tail)
        elif kind == "repeat":
            rows.insert(at, list(row))
    newline = draw(st.sampled_from(["\n"] * 7 + ["\r\n"]))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if draw(st.integers(0, 19)) == 0:
        lines = [",".join(f'"{cell}"' for cell in line.split(",")) for line in lines]
    end = newline if draw(st.integers(0, 4)) else ""
    return newline.join(lines) + end


@st.composite
def region_rows(draw, tail):
    """A series' meta and the rows of its region CSV: ``region, value`` plus
    a ``tail`` cell unless it is None. The regions are the whole scope in
    code order (the shared-tuple case), a permutation of it, or any codes,
    out-of-scope ones too."""
    level, country = draw(st.sampled_from(LEVELS)), draw(st.sampled_from([None, "AA"]))
    meta = SeriesMeta("x", "d", "u", level, country or "ALL")
    scope = HIERARCHY.regions_at(level, country)
    regions = draw(st.sampled_from([
        st.just(scope), st.just(scope), st.permutations(scope), st.permutations(scope),
        st.lists(st.sampled_from(CODES), max_size=25),
    ]).flatmap(lambda regions: regions))
    rows = [[region, draw(VALUES)] for region in regions]
    if tail is not None:
        rows = [row + [draw(tail)] for row in rows]
    return meta, rows


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "data.csv"
    path.unlink(missing_ok=True)  # ext4 flushes a file truncated or renamed over
    path.write_bytes(text.encode("utf-8"))
    return path


@PROPERTY
@given(data=st.data())
def test_ingest_series_matches_row_reader(tmp_path, data):
    meta, rows = data.draw(region_rows(None))
    path = write(tmp_path, data.draw(csv_text(["region", "value"], rows)))
    fast = outcome(ingest_series, path, meta, HIERARCHY)
    with mock.patch.object(series_module, "_fast_columns", lambda *args: None):
        slow = outcome(ingest_series, path, meta, HIERARCHY)
    assert fast == slow


@PROPERTY
@given(data=st.data())
def test_read_series_csv_matches_row_reader(tmp_path, data):
    meta, rows = data.draw(region_rows(GRADES))
    path = write(tmp_path, data.draw(csv_text(["region", "value", "confidence"], rows, ODD_GRADES)))
    fast = outcome(read_series_csv, path, meta, HIERARCHY)
    with mock.patch.object(series_module, "_fast_columns", lambda *args: None):
        slow = outcome(read_series_csv, path, meta, HIERARCHY)
    assert fast == slow


@PROPERTY
@given(data=st.data(), labelled=st.booleans())
def test_read_reference_csv_matches_row_reader(tmp_path, data, labelled):
    meta, rows = data.draw(region_rows(LABELS if labelled else None))
    header = ["region", "value", "label"] if labelled else ["region", "value"]
    path = write(tmp_path, data.draw(csv_text(header, rows, LABELS)))
    fast = outcome(read_reference_csv, path, HIERARCHY, meta.level)
    with mock.patch.object(config, "_fast_columns", lambda *args: None):
        slow = outcome(read_reference_csv, path, HIERARCHY, meta.level)
    assert fast == slow


def test_clean_files_need_no_row_reader(tmp_path):
    """A canonical file is read without the row reader, and a file that
    lists the whole level in order shares the hierarchy's code tuple."""
    laus = HIERARCHY.regions_at(SpatialLevel.LAU)
    meta = SeriesMeta("x", "d", "u", SpatialLevel.LAU)
    plain = write(tmp_path, "region,value\n" + "".join(f"{r},{i}\n" for i, r in enumerate(laus)))
    out = tmp_path / "out.csv"
    with mock.patch.object(series_module, "_region_rows", side_effect=AssertionError):
        ingested = ingest_series(plain, meta, HIERARCHY)
        write_series_csv(ingested, out)
        read_back = read_series_csv(out, meta, HIERARCHY)
    assert list(ingested.codes) == laus
    assert read_back.codes is ingested.codes


# -- hierarchy.csv -------------------------------------------------------------

SMALL = build_country("AA", 1, 1, 2, 2) + build_country("BB", 1, 1, 1, 2)
SMALL_ROWS = [[n.code, n.level.name, n.parent or "", n.country] for n in SMALL]
SMALL_CODES = [row[0] for row in SMALL_ROWS]


@st.composite
def hierarchy_rows(draw):
    """The rows of a valid hierarchy, in any order, with some of the faults
    the bulk checks must catch."""
    rows = [list(row) for row in draw(st.permutations(SMALL_ROWS))]
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        kind = draw(st.sampled_from(["dup", "drop", "code", "level", "parent", "country"]))
        at = draw(st.integers(0, len(rows) - 1))
        if kind == "dup":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[at]))
        elif kind == "drop":
            del rows[at]
        elif kind == "code":
            rows[at][0] = draw(st.sampled_from(SMALL_CODES + ["", "CC"]))
        elif kind == "level":
            rows[at][1] = draw(st.sampled_from([level.name for level in SpatialLevel] + ["NUTS9"]))
        elif kind == "parent":
            rows[at][2] = draw(st.sampled_from(SMALL_CODES + ["", "XX"]))
        else:
            rows[at][3] = draw(st.sampled_from(["AA", "BB", "CC"]))
    return rows


def hierarchy_outcome(path):
    try:
        h = load_hierarchy(path)
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return type(exc), str(exc)
    parents = {level: index.tolist() for level, index in h._parent.items()}
    return list(h.nodes.values()), h._codes, h._position, parents, len(h)


def walk_first(build):
    """``_build`` that always runs the node-by-node checks first, as every
    hierarchy was checked before the bulk checks existed."""
    def checked(self, *columns):
        self._columns = columns
        self._validate()
        build(self, *columns)
    return checked


@PROPERTY
@given(data=st.data())
def test_load_hierarchy_matches_row_reader_and_node_checks(tmp_path, data):
    text = data.draw(csv_text(["code", "level", "parent", "country"], data.draw(hierarchy_rows())))
    path = write(tmp_path, text)
    fast = hierarchy_outcome(path)
    with mock.patch("regio.hierarchy._hierarchy_columns", lambda path: None), mock.patch.object(
        RegionHierarchy, "_build", walk_first(RegionHierarchy._build)
    ):
        slow = hierarchy_outcome(path)
    assert fast == slow


# -- writer --------------------------------------------------------------------

def csv_writer_bytes(series: VariableSeries) -> bytes:
    """``write_series_csv``'s bytes as ``csv.writer`` writes them."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["region", "value", "confidence"])
    for region, value, grade in zip(series.codes, series.data.tolist(), series.grades.tolist()):
        if math.isnan(value):
            writer.writerow([region, "", ""])
        else:
            writer.writerow([region, format(value, ".17g"), ConfidenceLevel(grade).name])
    return buffer.getvalue().encode("utf-8")


CODE_TEXT = st.one_of(
    st.text(
        st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), min_size=1, max_size=6
    ),
    st.text(st.sampled_from('AB_1 ,"\r\n\t\x85'), min_size=1, max_size=4),
    st.sampled_from(CODES),
)


@PROPERTY
@given(
    rows=st.lists(
        st.tuples(CODE_TEXT, st.floats(), st.sampled_from(list(ConfidenceLevel))),
        unique_by=lambda row: row[0], max_size=40,
    ),
    plain=st.booleans(),
)
def test_write_series_csv_matches_csv_writer(tmp_path, rows, plain):
    if plain:  # codes that need no quoting, so the joined lines are written
        rows = [row for row in rows if not any(c in row[0] for c in ',"\r\n')]
    codes = [row[0] for row in rows]
    data = np.array([row[1] for row in rows], dtype=np.float64)
    grades = np.where(np.isnan(data), -1, [int(row[2]) for row in rows])
    series = VariableSeries("x", "", "", SpatialLevel.LAU, "ALL", codes, data, grades)
    path = tmp_path / "out.csv"
    path.unlink(missing_ok=True)
    write_series_csv(series, path)
    assert path.read_bytes() == csv_writer_bytes(series)


# -- whole projects --------------------------------------------------------------

def crlf(text: str) -> str:
    return text.replace("\n", "\r\n")


def quoted(text: str) -> str:
    return "".join(
        ",".join(f'"{cell}"' for cell in line.split(",")) + "\n" for line in text.splitlines()
    )


def blank_lines(text: str) -> str:
    return text.replace("\n", "\n\n")


def output_digests(config_path: Path) -> dict[str, str]:
    root = config_path.parent / "output"
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("spelling", [crlf, quoted, blank_lines])
def test_non_canonical_files_give_the_same_run(toy_project, spelling):
    """Every CSV input written another way csv reads gives the same outputs."""
    plain = toy_project.parent.with_name("plain")
    shutil.copytree(toy_project.parent, plain)
    assert cli_main(["run", "--config", str(plain / "config.json")]) == 0
    root = toy_project.parent
    for path in [root / "hierarchy.csv", *root.glob("series/*.csv"), *root.glob("reference/*.csv")]:
        path.write_bytes(spelling(path.read_text(encoding="utf-8")).encode("utf-8"))
    assert cli_main(["run", "--config", str(toy_project)]) == 0
    assert output_digests(toy_project) == output_digests(plain / "config.json")
